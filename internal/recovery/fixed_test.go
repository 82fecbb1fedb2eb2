package recovery

import (
	"testing"

	"nerve/internal/codec"
	"nerve/internal/edgecode"
	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// TestFixedPointExtrapolatedRuns covers the no-code ablation (byte flow +
// byte warp with no hint fusion).
func TestFixedPointExtrapolatedRuns(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 8)
	r := New(Config{OutW: tw, OutH: th})
	prevPrev := g.Render(10, tw, th)
	prev := g.Render(11, tw, th)
	truth := g.Render(12, tw, th)
	out := r.Recover(Input{Prev: prev, PrevPrev: prevPrev})
	if psnr := metrics.PSNR(truth, out); psnr < 15 {
		t.Fatalf("fixed extrapolated recovery PSNR %.2f dB, want ≥ 15", psnr)
	}
}

// TestFixedPointZeroPlaneAllocsWarm: a warmed Recoverer must run entirely
// on pooled planes (byte shadows included — BytePool misses count
// into PlaneAllocs too).
func TestFixedPointZeroPlaneAllocsWarm(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 9)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: tw, OutH: th})
	prevPrev := g.Render(20, tw, th)
	prev := g.Render(21, tw, th)
	prevCode := ext.Extract(prev)
	// Pre-render truths and codes: the generator does not use the plane
	// pool, so its allocations must stay out of the measurement.
	const frames = 10
	codes := make([]*edgecode.Code, frames)
	for k := 0; k < frames; k++ {
		truth := g.Render(22+k, tw, th)
		codes[k] = ext.Extract(truth)
		vmath.Put(truth)
	}
	step := func(k int) {
		out := r.Recover(Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: codes[k]})
		prevCode = codes[k]
		vmath.Put(prevPrev)
		prevPrev = prev
		prev = out
	}
	for k := 0; k < 4; k++ {
		step(k) // warm the float and byte pools
	}
	before := vmath.PlaneAllocs()
	for k := 4; k < frames; k++ {
		step(k)
	}
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("warm recovery allocated %d planes over 6 frames, want 0", d)
	}
}

// BenchmarkRecoverHintedFixed540p times hinted recovery of a category-2
// raw render at 960×540.
func BenchmarkRecoverHintedFixed540p(b *testing.B) {
	const w, h = 960, 540
	g := video.NewGenerator(video.Categories()[2], 10)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: w, OutH: h})
	prevPrev := g.Render(30, w, h)
	prev := g.Render(31, w, h)
	prevCode := ext.Extract(prev)
	truth := g.Render(32, w, h)
	curCode := ext.Extract(truth)
	in := Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode}
	r.Recover(in) // warm pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmath.Put(r.Recover(in))
	}
}

// BenchmarkRecoverPartialFixed540p times the recovery of a partially
// received frame in the situation play-lossy produces: GamePlay
// at 960×540 through the codec at 6 Mb/s, a whole frame lost and
// recovered, and the next frame decoded against that recovered reference
// with the second half of its slices dropped. The timed call recovers
// that frame from its Part/PartMask, the recovered frame as Prev and the
// last decoded one as PrevPrev. The chain leaves several thousand holes
// in the work plane, like play-lossy's partial frames; the category-2 raw
// renders of BenchmarkRecoverHintedFixed540p leave far fewer, so that
// benchmark spends little of its time in inpaint.
func BenchmarkRecoverPartialFixed540p(b *testing.B) {
	const w, h, lost = 960, 540, 41
	g := video.NewGenerator(video.Categories()[3], 1)
	enc := codec.NewEncoder(codec.Config{W: w, H: h, TargetBitrate: 6e6})
	dec := codec.NewDecoder(codec.Config{W: w, H: h})
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: w, OutH: h})
	var prev, prevPrev *vmath.Plane
	var prevCode *edgecode.Code
	for k := 0; k < lost; k++ {
		src := g.Render(k, w, h)
		prevCode = ext.Extract(src)
		res, err := dec.Decode(enc.Encode(src), nil)
		if err != nil {
			b.Fatal(err)
		}
		// The decoder keeps its last output as the reference; clone so
		// the frames kept here stay put.
		prevPrev, prev = prev, res.Frame.Clone()
		vmath.Put(res.Mask)
	}
	src := g.Render(lost, w, h)
	code := ext.Extract(src)
	enc.Encode(src) // the encoder still codes the frame the channel loses
	rec := r.Recover(Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: code})
	dec.SetReference(rec)
	src = g.Render(lost+1, w, h)
	in := Input{Prev: rec, PrevPrev: prev, PrevCode: code, CurCode: ext.Extract(src)}
	ef := enc.Encode(src)
	received := make([]bool, len(ef.Slices))
	for i := range received {
		received[i] = i < len(received)/2
	}
	res, err := dec.Decode(ef, received)
	if err != nil {
		b.Fatal(err)
	}
	in.Part, in.PartMask = res.Frame, res.Mask
	vmath.Put(r.Recover(in)) // warm pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmath.Put(r.Recover(in))
	}
}
