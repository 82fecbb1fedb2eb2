package vmath

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/par"
)

// fixedTestPlanes builds the oracle sweep corpus: random noise,
// checkerboards at two frequencies, impulses, flat extremes and gradients
// — the corner cases where rounding and lane packing go wrong.
func fixedTestPlanes(w, h int, seed int64) []*BytePlane {
	rng := rand.New(rand.NewSource(seed))
	var out []*BytePlane
	random := NewBytePlane(w, h)
	for i := range random.Pix {
		random.Pix[i] = uint8(rng.Intn(256))
	}
	out = append(out, random)
	for _, period := range []int{1, 4} {
		cb := NewBytePlane(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if (x/period+y/period)%2 == 0 {
					cb.Pix[y*w+x] = 255
				}
			}
		}
		out = append(out, cb)
	}
	imp := NewBytePlane(w, h)
	imp.Pix[(h/2)*w+w/2] = 255
	imp.Pix[0] = 255
	imp.Pix[len(imp.Pix)-1] = 255
	out = append(out, imp)
	for _, v := range []uint8{0, 255, 128} {
		flat := NewBytePlane(w, h)
		for i := range flat.Pix {
			flat.Pix[i] = v
		}
		out = append(out, flat)
	}
	grad := NewBytePlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			grad.Pix[y*w+x] = uint8((x*255/max(w-1, 1) + y) % 256)
		}
	}
	out = append(out, grad)
	return out
}

// toFloat converts a byte plane to its float shadow.
func toFloat(p *BytePlane) *Plane {
	f := NewPlane(p.W, p.H)
	for i, v := range p.Pix {
		f.Pix[i] = float32(v)
	}
	return f
}

// maxAbsDiffBytes returns the largest |a−b| over the two byte planes.
func maxAbsDiffBytes(t *testing.T, a *BytePlane, b *BytePlane) int {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var worst int
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

var resizeGeometries = []struct{ sw, sh, dw, dh int }{
	{64, 36, 128, 72},    // exact 2× up
	{64, 36, 160, 90},    // 2.5× up
	{160, 90, 64, 36},    // downscale
	{61, 37, 113, 71},    // odd primes both ways
	{113, 71, 61, 37},    //
	{64, 36, 64, 36},     // identity geometry
	{960, 540, 480, 270}, // the recovery work-res path
}

// TestResizeBilinearBytesWithinOneLSB: the Q15 SWAR bilinear resize must
// stay within 1 LSB of the rounded float reference on every corpus plane
// and geometry.
func TestResizeBilinearBytesWithinOneLSB(t *testing.T) {
	for _, g := range resizeGeometries {
		for pi, src := range fixedTestPlanes(g.sw, g.sh, 2) {
			got := ResizeBilinearBytesInto(NewBytePlane(g.dw, g.dh), src)
			ref := ResizeBilinearInto(NewPlane(g.dw, g.dh), toFloat(src))
			refB := NewBytePlane(g.dw, g.dh).FromPlane(ref)
			if d := maxAbsDiffBytes(t, got, refB); d > 1 {
				t.Errorf("geometry %v plane %d: bilinear bytes off by %d LSB (want ≤1)", g, pi, d)
			}
		}
	}
}

// TestResizeBilinearBytesFlatExact: on a flat plane every lerp is exact, so
// the fixed-point path must reproduce the constant bit-exactly (the
// "bit-exact where the contract allows" half of the bound).
func TestResizeBilinearBytesFlatExact(t *testing.T) {
	src := NewBytePlane(50, 30)
	for i := range src.Pix {
		src.Pix[i] = 137
	}
	got := ResizeBilinearBytesInto(NewBytePlane(173, 99), src)
	for i, v := range got.Pix {
		if v != 137 {
			t.Fatalf("pixel %d: flat resize produced %d, want 137", i, v)
		}
	}
}

// TestSAD8MatchesScalar cross-checks the SWAR byte SAD against a scalar
// loop over random words.
func TestSAD8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		var xb, yb [8]byte
		for i := range xb {
			xb[i] = uint8(rng.Intn(256))
			yb[i] = uint8(rng.Intn(256))
		}
		var x, y uint64
		var want uint64
		for i := 0; i < 8; i++ {
			x |= uint64(xb[i]) << (8 * i)
			y |= uint64(yb[i]) << (8 * i)
			d := int(xb[i]) - int(yb[i])
			if d < 0 {
				d = -d
			}
			want += uint64(d)
		}
		if got := SAD8(x, y); got != want {
			t.Fatalf("trial %d: SAD8 = %d, want %d", trial, got, want)
		}
	}
}

// TestToPlaneRoundTrip: FromPlane∘ToPlane must be the identity on byte
// planes.
func TestToPlaneRoundTrip(t *testing.T) {
	src := fixedTestPlanes(19, 13, 9)[0]
	f := src.ToPlane(NewPlane(19, 13))
	back := NewBytePlane(19, 13).FromPlane(f)
	if d := maxAbsDiffBytes(t, back, src); d != 0 {
		t.Fatalf("round trip changed pixels (max diff %d)", d)
	}
}

// TestResizeBytesPoolSizeIndependent: the byte resize must stay
// bit-identical across pool sizes like every other kernel (ForRows bands
// are pool-size independent).
func TestResizeBytesPoolSizeIndependent(t *testing.T) {
	src := fixedTestPlanes(160, 90, 10)[0]
	run := func(workers int) *BytePlane {
		defer par.SetWorkers(workers)()
		return ResizeBilinearBytesInto(NewBytePlane(321, 181), src)
	}
	if d := maxAbsDiffBytes(t, run(1), run(4)); d != 0 {
		t.Errorf("resize differs across pool sizes by %d", d)
	}
}

// TestResizeToBytesMatchesShadowResize: the float-source resize must equal
// ResizeBilinearBytesInto on the PixelByte shadow byte for byte — at the
// recovery path's 2:1 and 4:1 downscales, odd ratios both ways, exact 2×,
// same size, single pixels and empty planes — on sources with pixels below
// 0, above 255, at the rounding ties and infinite, at pool sizes 1 and 4.
func TestResizeToBytesMatchesShadowResize(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	edge := []float32{-1e9, -3, -0.5, float32(math.Copysign(0, -1)), 0.49999997, 0.5, 127.5, 254.49998, 254.5, 255, 256, 1e9,
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, g := range [][4]int{
		{960, 540, 480, 270}, {960, 540, 240, 135}, {161, 97, 53, 31}, {97, 61, 161, 97},
		{80, 45, 160, 90}, {33, 17, 33, 17}, {7, 5, 3, 2}, {1, 1, 5, 3}, {5, 3, 1, 1},
		{4, 4, 0, 0}, {0, 0, 4, 4},
	} {
		src := NewPlane(g[0], g[1])
		for i := range src.Pix {
			src.Pix[i] = rng.Float32()*320 - 32
			if rng.Intn(8) == 0 {
				src.Pix[i] = edge[rng.Intn(len(edge))]
			}
		}
		want := ResizeBilinearBytesInto(NewBytePlane(g[2], g[3]), NewBytePlane(g[0], g[1]).FromPlane(src))
		for _, workers := range []int{1, 4} {
			restore := par.SetWorkers(workers)
			dst := NewBytePlane(g[2], g[3])
			for i := range dst.Pix {
				dst.Pix[i] = 0xa5 // every pixel must be written
			}
			got := ResizeBilinearToBytesInto(dst, src)
			restore()
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%dx%d → %dx%d workers=%d: pixel %d is %d, want %d",
						g[0], g[1], g[2], g[3], workers, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

func BenchmarkResizeBilinearBytes1080p(b *testing.B) {
	src := NewBytePlane(960, 540)
	rng := rand.New(rand.NewSource(11))
	for i := range src.Pix {
		src.Pix[i] = uint8(rng.Intn(256))
	}
	dst := NewBytePlane(1920, 1080)
	b.SetBytes(int64(len(dst.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinearBytesInto(dst, src)
	}
}
