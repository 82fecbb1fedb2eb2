package vmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func constantPlane(w, h int, v float32) *Plane {
	p := NewPlane(w, h)
	p.Fill(v)
	return p
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randomPlane(rng, 9, 7)
	for name, f := range map[string]func(*Plane, int, int) *Plane{
		"nearest":  ResizeNearest,
		"bilinear": ResizeBilinear,
		"bicubic":  ResizeBicubic,
	} {
		q := f(p, p.W, p.H)
		if d := MAE(p, q); d > 1e-3 {
			t.Errorf("%s identity resize error %v", name, d)
		}
	}
}

func TestResizePreservesConstant(t *testing.T) {
	p := constantPlane(8, 8, 123)
	for name, f := range map[string]func(*Plane, int, int) *Plane{
		"nearest":  ResizeNearest,
		"bilinear": ResizeBilinear,
		"bicubic":  ResizeBicubic,
	} {
		q := f(p, 17, 5)
		min, max := q.MinMax()
		if math.Abs(float64(min)-123) > 1e-3 || math.Abs(float64(max)-123) > 1e-3 {
			t.Errorf("%s does not preserve constants: min=%v max=%v", name, min, max)
		}
	}
}

func TestResizeDimensions(t *testing.T) {
	p := NewPlane(12, 8)
	q := ResizeBilinear(p, 30, 14)
	if q.W != 30 || q.H != 14 {
		t.Fatalf("got %dx%d", q.W, q.H)
	}
}

func TestDownsampleBoxAverage(t *testing.T) {
	p := FromSlice(4, 2, []float32{
		0, 2, 4, 6,
		2, 4, 6, 8,
	})
	q := DownsampleInto(NewPlane(2, 1), p, 2, 2)
	if q.W != 2 || q.H != 1 {
		t.Fatalf("shape %dx%d", q.W, q.H)
	}
	if q.Pix[0] != 2 || q.Pix[1] != 6 {
		t.Fatalf("values %v", q.Pix)
	}
}

func TestDownsamplePanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DownsampleInto(NewPlane(4, 4), NewPlane(4, 4), 0, 1)
}

func TestBicubicSharpnessVsBilinear(t *testing.T) {
	// A step edge upsampled bicubically should stay at least as sharp as
	// bilinear (higher max gradient).
	p := NewPlane(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			p.Set(x, y, 255)
		}
	}
	bl := ResizeBilinear(p, 64, 64)
	bc := ResizeBicubic(p, 64, 64)
	_, gb := GradientMagnitudeInto(nil, bl).MinMax()
	_, gc := GradientMagnitudeInto(nil, bc).MinMax()
	if gc < gb {
		t.Fatalf("bicubic max gradient %v < bilinear %v", gc, gb)
	}
}

// Property: resizing never inflates the value range beyond a small
// overshoot for bilinear (none) and bounded overshoot for bicubic.
func TestResizePropertyRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlane(rng, 10, 10)
		lo, hi := p.MinMax()
		q := ResizeBilinear(p, 23, 17)
		qlo, qhi := q.MinMax()
		return qlo >= lo-1e-3 && qhi <= hi+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResizeEmpty(t *testing.T) {
	p := NewPlane(0, 0)
	q := ResizeBilinear(p, 0, 0)
	if q.W != 0 || q.H != 0 {
		t.Fatal("empty resize should stay empty")
	}
}
