package vmath

import (
	"math"
	"math/rand"
	"testing"
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
