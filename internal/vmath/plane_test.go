package vmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomPlane(rng *rand.Rand, w, h int) *Plane {
	p := NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = rng.Float32() * 255
	}
	return p
}

func TestNewPlaneZeroed(t *testing.T) {
	p := NewPlane(4, 3)
	if p.W != 4 || p.H != 3 || len(p.Pix) != 12 {
		t.Fatalf("unexpected shape %dx%d len=%d", p.W, p.H, len(p.Pix))
	}
	for i, v := range p.Pix {
		if v != 0 {
			t.Fatalf("pixel %d not zeroed: %v", i, v)
		}
	}
}

func TestNewPlanePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlane(-1, 2)
}

func TestFromSliceSharesBacking(t *testing.T) {
	pix := []float32{1, 2, 3, 4}
	p := FromSlice(2, 2, pix)
	pix[0] = 9
	if p.At(0, 0) != 9 {
		t.Fatal("FromSlice should not copy")
	}
}

func TestFromSlicePanicsOnLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	p := NewPlane(2, 2)
	p.Set(1, 1, 5)
	q := p.Clone()
	q.Set(1, 1, 7)
	if p.At(1, 1) != 5 {
		t.Fatal("Clone must not alias")
	}
}

func TestAtClampBorders(t *testing.T) {
	p := FromSlice(2, 2, []float32{1, 2, 3, 4})
	cases := []struct {
		x, y int
		want float32
	}{
		{-5, -5, 1}, {5, -1, 2}, {-1, 5, 3}, {9, 9, 4}, {0, 1, 3},
	}
	for _, c := range cases {
		if got := p.AtClamp(c.x, c.y); got != c.want {
			t.Errorf("AtClamp(%d,%d)=%v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestClamp255(t *testing.T) {
	p := FromSlice(3, 1, []float32{-10, 128, 300})
	p.Clamp255()
	want := []float32{0, 128, 255}
	for i := range want {
		if p.Pix[i] != want[i] {
			t.Errorf("pix[%d]=%v want %v", i, p.Pix[i], want[i])
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomPlane(rng, 8, 6)
	b := randomPlane(rng, 8, 6)
	sum := a.Clone().AddScaled(b, 1)
	back := Sub(nil, sum, b)
	if d := MAE(a, back); d > 1e-4 {
		t.Fatalf("add/sub round trip error %v", d)
	}
}

func TestLerpEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomPlane(rng, 5, 5)
	b := randomPlane(rng, 5, 5)
	if d := MAE(Lerp(nil, a, b, 0), a); d != 0 {
		t.Fatalf("Lerp(0) != a: %v", d)
	}
	if d := MAE(Lerp(nil, a, b, 1), b); d > 1e-5 {
		t.Fatalf("Lerp(1) != b: %v", d)
	}
}

func TestMeanMinMax(t *testing.T) {
	p := FromSlice(4, 1, []float32{1, 2, 3, 10})
	if m := p.Mean(); !almostEq(m, 4, 1e-9) {
		t.Fatalf("Mean=%v", m)
	}
	min, max := p.MinMax()
	if min != 1 || max != 10 {
		t.Fatalf("MinMax=%v,%v", min, max)
	}
}

func TestMSEAndMAE(t *testing.T) {
	a := FromSlice(2, 1, []float32{0, 0})
	b := FromSlice(2, 1, []float32{3, 4})
	if got := MSE(a, b); !almostEq(got, 12.5, 1e-9) {
		t.Fatalf("MSE=%v", got)
	}
	if got := MAE(a, b); !almostEq(got, 3.5, 1e-9) {
		t.Fatalf("MAE=%v", got)
	}
}

func TestSampleBilinearAtIntegerCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomPlane(rng, 7, 5)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			if got := p.SampleBilinear(float32(x), float32(y)); !almostEq(float64(got), float64(p.At(x, y)), 1e-4) {
				t.Fatalf("SampleBilinear(%d,%d)=%v want %v", x, y, got, p.At(x, y))
			}
		}
	}
}

func TestSampleBilinearMidpoint(t *testing.T) {
	p := FromSlice(2, 1, []float32{0, 10})
	if got := p.SampleBilinear(0.5, 0); !almostEq(float64(got), 5, 1e-5) {
		t.Fatalf("midpoint=%v", got)
	}
}

func TestAddPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPlane(2, 2).AddScaled(NewPlane(3, 2), 1)
}

func TestScaleAddScaled(t *testing.T) {
	a := FromSlice(2, 1, []float32{1, 2})
	b := FromSlice(2, 1, []float32{10, 20})
	a.AddScaled(b, 0.5)
	if a.Pix[0] != 6 || a.Pix[1] != 12 {
		t.Fatalf("got %v", a.Pix)
	}
}

// Property: MSE is symmetric and zero iff planes are identical.
func TestMSEPropertySymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPlane(rng, 6, 4)
		b := randomPlane(rng, 6, 4)
		return almostEq(MSE(a, b), MSE(b, a), 1e-6) && MSE(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
