package codec

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

func testClip(t *testing.T, n int) []*vmath.Plane {
	t.Helper()
	g := video.NewGenerator(video.Categories()[0], 3)
	frames := make([]*vmath.Plane, n)
	for i := range frames {
		frames[i] = g.Render(i, 160, 96)
	}
	return frames
}

func TestDCTRoundTrip(t *testing.T) {
	// Transform-set-aware round trip: forward output is descaled from the
	// active set's forward domain into its inverse domain (a uniform 1/64
	// for AAN, identity for the reference set).
	rng := rand.New(rand.NewSource(1))
	var blk, coef, rec [64]float32
	for i := range blk {
		blk[i] = rng.Float32()*255 - 128
	}
	xf.fdct(&blk, &coef)
	for i := range coef {
		coef[i] *= xf.invScale[i] / xf.fwdScale[i]
	}
	xf.idct(&coef, &rec)
	tol := 1e-3
	for i := range blk {
		if math.Abs(float64(blk[i]-rec[i])) > tol {
			t.Fatalf("DCT round trip error at %d: %v vs %v", i, blk[i], rec[i])
		}
	}
}

func TestDCTEnergyCompaction(t *testing.T) {
	// A smooth ramp should concentrate energy in low frequencies.
	var blk, coef [64]float32
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			blk[y*8+x] = float32(10 * x)
		}
	}
	fdct8Ref(&blk, &coef)
	var low, high float64
	for v := 0; v < 8; v++ {
		for u := 0; u < 8; u++ {
			e := float64(coef[v*8+u]) * float64(coef[v*8+u])
			if u+v <= 2 {
				low += e
			} else {
				high += e
			}
		}
	}
	if low < 100*high {
		t.Fatalf("poor energy compaction: low=%v high=%v", low, high)
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range zigzag {
		if v < 0 || v > 63 || seen[v] {
			t.Fatalf("zigzag not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestQuantiseRoundTripCoarse(t *testing.T) {
	// quantise consumes the active transform's scaled forward domain and
	// dequantise emits its scaled inverse domain; mapping true coefficients
	// in and out of those domains must round-trip to within half a
	// quantiser step, for any transform set.
	rng := rand.New(rand.NewSource(2))
	var truth, coef, deq [64]float32
	var levels [64]int32
	for i := range truth {
		truth[i] = rng.Float32()*200 - 100
		coef[i] = truth[i] * xf.fwdScale[i]
	}
	quantise(&coef, 2, &levels)
	dequantise(&levels, 2, &deq)
	for i := range truth {
		step := 2 * quantWeight[i]
		got := deq[i] / xf.invScale[i]
		if math.Abs(float64(truth[i]-got)) > float64(step)/2+1e-3 {
			t.Fatalf("quantisation error beyond half step at %d: %v vs %v", i, truth[i], got)
		}
	}
}

func TestEncodeDecodeLossless(t *testing.T) {
	frames := testClip(t, 6)
	cfg := Config{W: 160, H: 96, GOP: 4, TargetBitrate: 600e3, FPS: 30}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	for i, f := range frames {
		ef := enc.Encode(f)
		res, err := dec.Decode(ef, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !res.Complete() {
			t.Fatalf("frame %d incomplete without losses", i)
		}
		// Decoder output must exactly match encoder reconstruction.
		if d := vmath.MAE(res.Frame, ef.Recon); d > 1e-4 {
			t.Fatalf("frame %d decoder/encoder recon mismatch: %v", i, d)
		}
		// Quality must be reasonable at this bitrate.
		if p := metrics.PSNR(f, res.Frame); p < 24 {
			t.Fatalf("frame %d PSNR too low: %v", i, p)
		}
	}
}

func TestGOPStructure(t *testing.T) {
	frames := testClip(t, 9)
	cfg := Config{W: 160, H: 96, GOP: 4, TargetBitrate: 500e3}
	enc := NewEncoder(cfg)
	for i, f := range frames {
		ef := enc.Encode(f)
		wantI := i%4 == 0
		if (ef.Type == FrameI) != wantI {
			t.Fatalf("frame %d type %v, want I=%v", i, ef.Type, wantI)
		}
		if ef.Index != i {
			t.Fatalf("frame %d index %d", i, ef.Index)
		}
	}
}

func TestRateControlConverges(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 8)
	cfg := Config{W: 160, H: 96, GOP: 30, TargetBitrate: 400e3, FPS: 30}
	enc := NewEncoder(cfg)
	totalBits := 0
	const n = 60
	for i := 0; i < n; i++ {
		ef := enc.Encode(g.Render(i, 160, 96))
		totalBits += ef.TotalBytes() * 8
	}
	rate := float64(totalBits) / (float64(n) / cfg.FPS)
	if rate < cfg.TargetBitrate*0.5 || rate > cfg.TargetBitrate*2.0 {
		t.Fatalf("achieved rate %.0f not near target %.0f", rate, cfg.TargetBitrate)
	}
}

func TestHigherBitrateHigherQuality(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 5)
	frames := make([]*vmath.Plane, 20)
	for i := range frames {
		frames[i] = g.Render(i, 160, 96)
	}
	qualityAt := func(rate float64) float64 {
		cfg := Config{W: 160, H: 96, GOP: 10, TargetBitrate: rate, FPS: 30}
		enc := NewEncoder(cfg)
		dec := NewDecoder(cfg)
		var s metrics.Series
		for _, f := range frames {
			ef := enc.Encode(f)
			res, err := dec.Decode(ef, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.Observe(metrics.PSNR(f, res.Frame), 0)
		}
		return s.MeanPSNR()
	}
	low := qualityAt(150e3)
	high := qualityAt(900e3)
	if high <= low {
		t.Fatalf("PSNR did not increase with bitrate: %.2f vs %.2f", low, high)
	}
}

func TestPartialDecodeMasksLostRows(t *testing.T) {
	frames := testClip(t, 3)
	// GOP 1 keeps every frame intra so frame 1 is guaranteed to span
	// several slices at this payload size.
	cfg := Config{W: 160, H: 96, GOP: 1, TargetBitrate: 800e3, PacketPayload: 300}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)

	// Frame 0 fully received to establish a reference.
	ef0 := enc.Encode(frames[0])
	if _, err := dec.Decode(ef0, nil); err != nil {
		t.Fatal(err)
	}
	ef1 := enc.Encode(frames[1])
	if len(ef1.Slices) < 2 {
		t.Fatalf("need multiple slices, got %d", len(ef1.Slices))
	}
	received := make([]bool, len(ef1.Slices))
	for i := range received {
		received[i] = i != 0 // drop the first slice
	}
	res, err := dec.Decode(ef1, received)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("decode with dropped slice reported complete")
	}
	lost := ef1.Slices[0]
	// Mask must be 0 inside the lost rows and 1 in received rows.
	yLost := lost.MBRowStart * MBSize
	if res.Mask.At(0, yLost) != 0 {
		t.Fatal("mask not cleared in lost region")
	}
	yRecv := (lost.MBRowStart + lost.MBRowCount) * MBSize
	if yRecv < cfg.H && res.Mask.At(0, yRecv) != 1 {
		t.Fatal("mask not set in received region")
	}
	frac := res.ReceivedFraction()
	if frac <= 0 || frac >= 1 {
		t.Fatalf("ReceivedFraction=%v", frac)
	}
}

func TestSetReferenceChangesPrediction(t *testing.T) {
	frames := testClip(t, 3)
	cfg := Config{W: 160, H: 96, GOP: 100, TargetBitrate: 600e3}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	ef0 := enc.Encode(frames[0])
	ef1 := enc.Encode(frames[1])
	if _, err := dec.Decode(ef0, nil); err != nil {
		t.Fatal(err)
	}
	// Corrupt the decoder's reference: P-frame decode should now differ
	// from the encoder's reconstruction (drift), proving the reference is
	// actually used.
	bad := vmath.NewPlane(160, 96)
	bad.Fill(0)
	dec.SetReference(bad)
	res, err := dec.Decode(ef1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := vmath.MAE(res.Frame, ef1.Recon); d < 1 {
		t.Fatalf("reference override had no effect (MAE %v)", d)
	}
}

func TestDecodeErrorsOnMismatch(t *testing.T) {
	cfg := Config{W: 160, H: 96, TargetBitrate: 500e3}
	enc := NewEncoder(cfg)
	dec := NewDecoder(Config{W: 80, H: 48, TargetBitrate: 500e3})
	ef := enc.Encode(vmath.NewPlane(160, 96))
	if _, err := dec.Decode(ef, nil); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	dec2 := NewDecoder(cfg)
	if _, err := dec2.Decode(ef, make([]bool, len(ef.Slices)+1)); err == nil {
		t.Fatal("expected received-mask length error")
	}
}

func TestIntraOnlyFirstFrameWithoutReference(t *testing.T) {
	// A decoder that never saw the I frame must fail gracefully on a P
	// frame that references it... our P frames conceal from grey, and
	// inter MBs without a reference are an error.
	cfg := Config{W: 64, H: 64, GOP: 2, TargetBitrate: 400e3}
	enc := NewEncoder(cfg)
	g := video.NewGenerator(video.Categories()[0], 1)
	_ = enc.Encode(g.Render(0, 64, 64))
	efP := enc.Encode(g.Render(1, 64, 64))
	dec := NewDecoder(cfg)
	_, err := dec.Decode(efP, nil)
	if err == nil {
		// Acceptable only if the frame was all-intra (possible for very
		// different content); otherwise this must error.
		t.Log("P frame decoded without reference (all-intra fallback)")
	}
}

func TestSliceSizesNearPayload(t *testing.T) {
	frames := testClip(t, 2)
	cfg := Config{W: 160, H: 96, GOP: 100, TargetBitrate: 2e6, PacketPayload: 400}
	enc := NewEncoder(cfg)
	ef := enc.Encode(frames[0])
	for i, s := range ef.Slices {
		if i < len(ef.Slices)-1 && s.Bytes() < cfg.PacketPayload/4 {
			t.Fatalf("slice %d suspiciously small: %d bytes", i, s.Bytes())
		}
		if s.MBRowCount <= 0 {
			t.Fatalf("slice %d has no rows", i)
		}
	}
	// Slices must tile the frame exactly.
	rows := 0
	for _, s := range ef.Slices {
		if s.MBRowStart != rows {
			t.Fatalf("slice gap at row %d", rows)
		}
		rows += s.MBRowCount
	}
	if rows != enc.MBRows() {
		t.Fatalf("slices cover %d rows, want %d", rows, enc.MBRows())
	}
}

func TestMotionSearchFindsTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := vmath.NewPlane(96, 96)
	for i := range ref.Pix {
		ref.Pix[i] = rng.Float32() * 255
	}
	ref = vmath.GaussianBlur(ref, 1.0)
	// cur = ref shifted by (3, -2): block at (x,y) in cur equals ref at (x+3, y-2).
	cur := vmath.NewPlane(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			cur.Set(x, y, ref.AtClamp(x+3, y-2))
		}
	}
	curB := vmath.GetBytes(96, 96).FromPlane(cur)
	refB := vmath.GetBytes(96, 96).FromPlane(ref)
	defer vmath.PutBytes(curB)
	defer vmath.PutBytes(refB)
	var st searchStats
	mv, sad := searchMV(curB, refB, 40, 40, MV{}, MV{}, 15, 0, &st)
	if mv.X != 3 || mv.Y != -2 {
		t.Fatalf("found mv %v (sad %d), want {3 -2}", mv, sad)
	}
	if sad != 0 {
		t.Fatalf("sad=%d want 0", sad)
	}
	if st.points == 0 {
		t.Fatal("search evaluated no points")
	}
}

func BenchmarkEncode160x96(b *testing.B) {
	g := video.NewGenerator(video.Categories()[0], 1)
	frames := make([]*vmath.Plane, 30)
	for i := range frames {
		frames[i] = g.Render(i, 160, 96)
	}
	cfg := Config{W: 160, H: 96, GOP: 30, TargetBitrate: 500e3}
	b.ResetTimer()
	enc := NewEncoder(cfg)
	for i := 0; i < b.N; i++ {
		enc.Encode(frames[i%30])
	}
}
