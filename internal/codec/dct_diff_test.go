package codec

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/bits"
	"nerve/internal/metrics"
	"nerve/internal/vmath"
)

// cornerBlocks are adversarial DCT inputs: flat extremes, single-pixel
// impulses at every position, maximum-amplitude checkerboards and ramps —
// the blocks where butterfly sign or scale mistakes show up loudest.
func cornerBlocks() [][64]float32 {
	var out [][64]float32
	flat := func(v float32) (b [64]float32) {
		for i := range b {
			b[i] = v
		}
		return b
	}
	out = append(out, flat(0), flat(255), flat(-255), flat(-128), flat(127))
	for p := 0; p < 64; p++ {
		var b [64]float32
		b[p] = 255
		out = append(out, b)
		b[p] = -255
		out = append(out, b)
	}
	var checker, rowAlt, colAlt, rampX, rampY [64]float32
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			v := float32(255)
			if (x+y)%2 == 1 {
				v = -255
			}
			checker[y*8+x] = v
			rowAlt[y*8+x] = float32(255 * (1 - 2*(y%2)))
			colAlt[y*8+x] = float32(255 * (1 - 2*(x%2)))
			rampX[y*8+x] = float32(x)*36 - 128
			rampY[y*8+x] = float32(y)*36 - 128
		}
	}
	return append(out, checker, rowAlt, colAlt, rampX, rampY)
}

func randomBlocks(seed int64, n int) [][64]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][64]float32, n)
	for i := range out {
		for j := range out[i] {
			out[i][j] = rng.Float32()*510 - 255
		}
	}
	return out
}

func diffBlocks(seed int64) [][64]float32 {
	return append(cornerBlocks(), randomBlocks(seed, 500)...)
}

// TestAANForwardMatchesRef: fdct8 descaled by fwdScale must agree with the
// orthonormal fdct8Ref to 1e-3 on corner-case and random blocks.
func TestAANForwardMatchesRef(t *testing.T) {
	ts := aanTransforms()
	var worst float64
	for _, blk := range diffBlocks(11) {
		var fast, ref [64]float32
		fdct8(&blk, &fast)
		fdct8Ref(&blk, &ref)
		for i := range fast {
			d := math.Abs(float64(fast[i]/ts.fwdScale[i] - ref[i]))
			if d > worst {
				worst = d
			}
		}
	}
	t.Logf("max forward error %g", worst)
	if worst > 1e-3 {
		t.Fatalf("AAN forward deviates from reference by %g > 1e-3", worst)
	}
}

// TestAANInverseMatchesRef: idct8 on invScale-scaled coefficients must
// agree with idct8Ref on the raw coefficients to 1e-3. The block set is
// interpreted directly as coefficient blocks, so frequency-domain impulses
// (single-basis-function reconstructions) are covered.
func TestAANInverseMatchesRef(t *testing.T) {
	ts := aanTransforms()
	var worst float64
	for _, coef := range diffBlocks(12) {
		var scaled, fast, ref [64]float32
		for i := range scaled {
			scaled[i] = coef[i] * ts.invScale[i]
		}
		idct8(&scaled, &fast)
		idct8Ref(&coef, &ref)
		for i := range fast {
			d := math.Abs(float64(fast[i] - ref[i]))
			if d > worst {
				worst = d
			}
		}
	}
	t.Logf("max inverse error %g", worst)
	if worst > 1e-3 {
		t.Fatalf("AAN inverse deviates from reference by %g > 1e-3", worst)
	}
}

// TestAANRoundTripIdentity: invScale/fwdScale is the uniform 1/64, so
// idct8(fdct8(x)/64) must reproduce x.
func TestAANRoundTripIdentity(t *testing.T) {
	ts := aanTransforms()
	for i := range ts.fwdScale {
		r := float64(ts.invScale[i]) / float64(ts.fwdScale[i])
		if math.Abs(r-1.0/64) > 1e-9 {
			t.Fatalf("invScale/fwdScale at %d is %g, want 1/64", i, r)
		}
	}
	var worst float64
	for _, blk := range diffBlocks(13) {
		var coef, rec [64]float32
		fdct8(&blk, &coef)
		for i := range coef {
			coef[i] /= 64
		}
		idct8(&coef, &rec)
		for i := range rec {
			d := math.Abs(float64(rec[i] - blk[i]))
			if d > worst {
				worst = d
			}
		}
	}
	t.Logf("max round-trip error %g", worst)
	if worst > 1e-3 {
		t.Fatalf("AAN round trip deviates by %g > 1e-3", worst)
	}
}

// TestRoundLevelSaturates: roundLevel rounds half away from zero, and a
// non-finite or out-of-range coefficient still yields a level that
// bits.WriteSE can code and ReadSE reads back — NaN as 0, everything past
// int32 saturated at ±MaxInt32.
func TestRoundLevelSaturates(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, tc := range []struct {
		v    float32
		want int32
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {-0.5, -1}, {-1.49, -1}, {2.5, 3},
		{float32(math.NaN()), 0},
		{inf, math.MaxInt32}, {-inf, -math.MaxInt32},
		{1 << 31, math.MaxInt32}, {-1 << 31, -math.MaxInt32},
		{1e20, math.MaxInt32}, {-1e20, -math.MaxInt32},
		{2147483520, 2147483520}, {-2147483520, -2147483520},
	} {
		got := roundLevel(tc.v)
		if got != tc.want {
			t.Fatalf("roundLevel(%v) = %d, want %d", tc.v, got, tc.want)
		}
		var w bits.Writer
		w.WriteSE(got)
		if back, err := bits.NewReader(w.Bytes()).ReadSE(); err != nil || back != got {
			t.Fatalf("level %d of roundLevel(%v) reads back as %d, %v", got, tc.v, back, err)
		}
	}
}

// TestQuantLevelEquivalence: with the AAN scales folded into the quant
// tables, the integer levels (the bitstream) must match what the reference
// transform produces, except where a coefficient lands within float noise
// of a rounding boundary.
func TestQuantLevelEquivalence(t *testing.T) {
	aan := aanTransforms()
	ref := refTransforms()
	setXF := func(ts transformSet) func() {
		old := xf
		xf = ts
		return func() { xf = old }
	}
	blocks := diffBlocks(14)
	for _, q := range []float32{1, 2, 4, 8} {
		mismatch, boundary := 0, 0
		for _, blk := range blocks {
			var cA, cR [64]float32
			var lA, lR [64]int32
			restore := setXF(aan)
			fdct8(&blk, &cA)
			quantise(&cA, q, &lA)
			restore()
			restore = setXF(ref)
			fdct8Ref(&blk, &cR)
			quantise(&cR, q, &lR)
			restore()
			for i := range lA {
				if lA[i] == lR[i] {
					continue
				}
				d := lA[i] - lR[i]
				if d < 0 {
					d = -d
				}
				if d > 1 {
					mismatch++
					continue
				}
				// Off-by-one is only legitimate on a rounding boundary:
				// the true coefficient within 1e-3 of a half-step.
				v := float64(cR[i]) / float64(q*quantWeight[i])
				if math.Abs(v-math.Round(v)-0.5) < 2e-3 || math.Abs(v-math.Round(v)+0.5) < 2e-3 {
					boundary++
				} else {
					mismatch++
				}
			}
		}
		if mismatch > 0 {
			t.Fatalf("q=%v: %d level mismatches beyond rounding boundaries (%d boundary cases)", q, mismatch, boundary)
		}
		t.Logf("q=%v: levels equivalent (%d boundary off-by-ones tolerated)", q, boundary)
	}
}

// encodeDecodePSNRs runs a full encode→decode loop and returns per-frame
// PSNRs of the decoded output against the source.
func encodeDecodePSNRs(t *testing.T, frames []*vmath.Plane, cfg Config) []float64 {
	t.Helper()
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	out := make([]float64, len(frames))
	for i, f := range frames {
		ef := enc.Encode(f)
		res, err := dec.Decode(ef, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		out[i] = metrics.PSNR(f, res.Frame)
		vmath.Put(res.Mask)
	}
	return out
}

// TestEncodePSNRParityWithReference is the end-to-end quality gate: the
// full encode/decode pipeline under the AAN transforms must land within
// 0.05 dB of the basis-matrix transforms on every golden frame. Run under
// both build tags, it pins whichever set is not the default against the
// other.
func TestEncodePSNRParityWithReference(t *testing.T) {
	setXF := func(ts transformSet) func() {
		old := xf
		xf = ts
		return func() { xf = old }
	}
	frames := testClip(t, 10)
	cfg := Config{W: 160, H: 96, GOP: 5, TargetBitrate: 600e3}
	restore := setXF(aanTransforms())
	fast := encodeDecodePSNRs(t, frames, cfg)
	restore()
	restore = setXF(refTransforms())
	ref := encodeDecodePSNRs(t, frames, cfg)
	restore()
	for i := range fast {
		if d := math.Abs(fast[i] - ref[i]); d > 0.05 {
			t.Fatalf("frame %d: PSNR %.3f dB (AAN) vs %.3f dB (reference): |Δ| %.3f > 0.05 dB",
				i, fast[i], ref[i], d)
		}
	}
	t.Logf("PSNR parity on %d frames: AAN %.3f..%.3f dB", len(fast), fast[0], fast[len(fast)-1])
}
