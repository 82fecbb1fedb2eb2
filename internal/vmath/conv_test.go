package vmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nerve/internal/par"
)

func TestConvolveIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := randomPlane(rng, 7, 6)
	id := []float32{0, 1, 0}
	q := ConvolveSeparable(p, id, id)
	if d := MAE(p, q); d != 0 {
		t.Fatalf("identity convolution error %v", d)
	}
}

func TestConvolveSeparableMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomPlane(rng, 12, 9)
	kx := []float32{0.25, 0.5, 0.25}
	ky := []float32{0.25, 0.5, 0.25}
	a := ConvolveSeparable(p, kx, ky)
	// The full 3×3 outer-product kernel, summed directly with replicate
	// padding.
	b := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			var s float32
			for j, wy := range ky {
				for i, wx := range kx {
					s += wx * wy * p.AtClamp(x+i-1, y+j-1)
				}
			}
			b.Set(x, y, s)
		}
	}
	if d := MAE(a, b); d > 1e-4 {
		t.Fatalf("separable vs full mismatch %v", d)
	}
}

func TestGaussianKernelNormalised(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		taps := GaussianKernel1D(sigma)
		if len(taps)%2 == 0 {
			t.Fatalf("even tap count for sigma %v", sigma)
		}
		var sum float64
		for _, v := range taps {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("sigma %v taps sum to %v", sigma, sum)
		}
		// Symmetry.
		for i := range taps {
			if taps[i] != taps[len(taps)-1-i] {
				t.Fatalf("sigma %v taps not symmetric", sigma)
			}
		}
	}
	if taps := GaussianKernel1D(0); len(taps) != 1 || taps[0] != 1 {
		t.Fatal("sigma<=0 must return identity")
	}
}

func TestGaussianBlurPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := randomPlane(rng, 20, 20)
	q := GaussianBlur(p, 1.2)
	// Replicate padding slightly biases the mean; tolerance is loose.
	if d := math.Abs(p.Mean() - q.Mean()); d > 2 {
		t.Fatalf("blur shifted mean by %v", d)
	}
	// Blur reduces variance.
	varOf := func(pl *Plane) float64 {
		m := pl.Mean()
		var s float64
		for _, v := range pl.Pix {
			d := float64(v) - m
			s += d * d
		}
		return s / float64(len(pl.Pix))
	}
	if varOf(q) >= varOf(p) {
		t.Fatal("blur did not reduce variance")
	}
}

func TestSobelOnRamp(t *testing.T) {
	// Horizontal ramp: gx ≈ 8·slope in the interior, gy ≈ 0.
	p := NewPlane(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			p.Set(x, y, float32(3*x))
		}
	}
	gx, gy := NewPlane(8, 8), NewPlane(8, 8)
	GradientsInto(gx, gy, p)
	for y := 1; y < 7; y++ {
		for x := 1; x < 7; x++ {
			if math.Abs(float64(gx.At(x, y))-24) > 1e-3 {
				t.Fatalf("gx at %d,%d = %v", x, y, gx.At(x, y))
			}
			if math.Abs(float64(gy.At(x, y))) > 1e-3 {
				t.Fatalf("gy at %d,%d = %v", x, y, gy.At(x, y))
			}
		}
	}
}

func TestGradientMagnitudeNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := GradientMagnitudeInto(nil, randomPlane(rng, 10, 10))
	min, _ := g.MinMax()
	if min < 0 {
		t.Fatalf("negative gradient magnitude %v", min)
	}
}

func TestUnsharpMaskSharpensEdge(t *testing.T) {
	p := NewPlane(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			p.Set(x, y, 200)
		}
	}
	blurred := GaussianBlur(p, 1.5)
	sharp := UnsharpMaskInto(nil, blurred, 1.5, 1.0)
	_, gBlur := GradientMagnitudeInto(nil, blurred).MinMax()
	_, gSharp := GradientMagnitudeInto(nil, sharp).MinMax()
	if gSharp <= gBlur {
		t.Fatalf("unsharp mask did not increase max gradient: %v <= %v", gSharp, gBlur)
	}
}

func BenchmarkGaussianBlur(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomPlane(rng, 480, 270)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GaussianBlur(p, 1.0)
	}
}

func BenchmarkResizeBilinear(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomPlane(rng, 480, 270)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinear(p, 1920, 1080)
	}
}

// convolveSeparableRef is ConvolveSeparableInto's reference formulation:
// every tap of both passes reads through AtClamp.
func convolveSeparableRef(p *Plane, kx, ky []float32) *Plane {
	tmp := NewPlane(p.W, p.H)
	rx, ry := len(kx)/2, len(ky)/2
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			var s float32
			for i, w := range kx {
				s += w * p.AtClamp(x+i-rx, y)
			}
			tmp.Pix[y*p.W+x] = s
		}
	}
	out := NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			var s float32
			for j, w := range ky {
				s += w * tmp.AtClamp(x, y+j-ry)
			}
			out.Pix[y*p.W+x] = s
		}
	}
	return out
}

// gradientsRef is GradientsInto's reference formulation: every neighbour
// reads through AtClamp.
func gradientsRef(p *Plane) (gx, gy *Plane) {
	gx, gy = NewPlane(p.W, p.H), NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			v00 := p.AtClamp(x-1, y-1)
			v10 := p.AtClamp(x, y-1)
			v20 := p.AtClamp(x+1, y-1)
			v01 := p.AtClamp(x-1, y)
			v21 := p.AtClamp(x+1, y)
			v02 := p.AtClamp(x-1, y+1)
			v12 := p.AtClamp(x, y+1)
			v22 := p.AtClamp(x+1, y+1)
			var sx float32
			sx += -v00
			sx += v20
			sx += -2 * v01
			sx += 2 * v21
			sx += -v02
			sx += v22
			var sy float32
			sy += -v00
			sy += -2 * v10
			sy += -v20
			sy += v02
			sy += 2 * v12
			sy += v22
			gx.Pix[y*p.W+x] = sx
			gy.Pix[y*p.W+x] = sy
		}
	}
	return gx, gy
}

// sameBits fails t unless got and want hold the same float32 bits.
func sameBits(t *testing.T, what string, got, want *Plane) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	for i := range want.Pix {
		if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
			t.Fatalf("%s: pixel %d is %v, want %v", what, i, got.Pix[i], want.Pix[i])
		}
	}
}

// TestConvolveSeparableMatchesClampRef holds the interior fast path to the
// all-AtClamp formulation bit for bit: planes narrower and shorter than
// the kernel (no interior at all), 7 taps, dst aliasing src, and pool
// sizes 1, 2 and 4.
func TestConvolveSeparableMatchesClampRef(t *testing.T) {
	kx := []float32{0.05, -0.1, 0.2, 0.5, 0.25, 0.125, -0.025}
	ky := []float32{-0.02, 0.1, 0.3, 0.4, 0.15, 0.05, 0.02}
	rng := rand.New(rand.NewSource(31))
	for _, sz := range [][2]int{{1, 1}, {2, 9}, {9, 2}, {5, 5}, {7, 7}, {8, 13}, {33, 19}} {
		src := NewPlane(sz[0], sz[1])
		for i := range src.Pix {
			src.Pix[i] = rng.Float32()*400 - 80
		}
		want := convolveSeparableRef(src, kx, ky)
		for _, workers := range []int{1, 2, 4} {
			restore := par.SetWorkers(workers)
			what := fmt.Sprintf("%dx%d workers=%d", sz[0], sz[1], workers)
			sameBits(t, what, ConvolveSeparableInto(NewPlane(sz[0], sz[1]), src, kx, ky), want)
			alias := src.Clone()
			sameBits(t, what+" aliased", ConvolveSeparableInto(alias, alias, kx, ky), want)
			restore()
		}
	}
}

// TestGradientsMatchClampRef holds the three-row fast path of
// GradientsInto to the all-AtClamp formulation bit for bit, on planes with
// no interior row or column and on larger ones.
func TestGradientsMatchClampRef(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, sz := range [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 2}, {3, 3}, {2, 11}, {11, 2}, {40, 27}} {
		src := NewPlane(sz[0], sz[1])
		for i := range src.Pix {
			src.Pix[i] = rng.Float32()*400 - 80
		}
		wx, wy := gradientsRef(src)
		for _, workers := range []int{1, 2, 4} {
			restore := par.SetWorkers(workers)
			gx, gy := NewPlane(sz[0], sz[1]), NewPlane(sz[0], sz[1])
			GradientsInto(gx, gy, src)
			what := fmt.Sprintf("%dx%d workers=%d", sz[0], sz[1], workers)
			sameBits(t, what+" gx", gx, wx)
			sameBits(t, what+" gy", gy, wy)
			restore()
		}
	}
}
