package warp

import (
	"math/rand"
	"testing"

	"nerve/internal/flow"
	"nerve/internal/metrics"
	"nerve/internal/vmath"
)

func texture(seed int64, w, h int) *vmath.Plane {
	rng := rand.New(rand.NewSource(seed))
	p := vmath.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = rng.Float32() * 255
	}
	return vmath.GaussianBlur(p, 1.2)
}

// warpNew runs BackwardInto into fresh planes.
func warpNew(src *vmath.Plane, f *flow.Field, confThreshold float32) (out, valid *vmath.Plane) {
	out = vmath.NewPlane(src.W, src.H)
	valid = vmath.NewPlane(src.W, src.H)
	BackwardInto(out, valid, src, f, confThreshold)
	return out, valid
}

func TestBackwardIdentity(t *testing.T) {
	src := texture(1, 48, 32)
	f := flow.NewField(48, 32)
	for i := range f.Conf {
		f.Conf[i] = 1
	}
	out, valid := warpNew(src, f, 0.1)
	if d := vmath.MAE(src, out); d > 1e-3 {
		t.Fatalf("identity warp error %v", d)
	}
	min, _ := valid.MinMax()
	if min != 1 {
		t.Fatal("identity warp should be valid everywhere")
	}
}

func TestBackwardTranslation(t *testing.T) {
	src := texture(2, 64, 48)
	f := flow.NewField(64, 48)
	for i := range f.U {
		f.U[i] = 4
		f.V[i] = -2
		f.Conf[i] = 1
	}
	out, _ := warpNew(src, f, 0.1)
	// out(x,y) = src(x+4, y-2); verify in the interior.
	for y := 8; y < 40; y++ {
		for x := 8; x < 56; x++ {
			want := src.At(x+4, y-2)
			if got := out.At(x, y); got != want {
				t.Fatalf("warp at (%d,%d): %v want %v", x, y, got, want)
			}
		}
	}
}

func TestBackwardMarksOutOfBounds(t *testing.T) {
	src := texture(3, 32, 32)
	f := flow.NewField(32, 32)
	for i := range f.U {
		f.U[i] = -10 // samples left of frame for x < 10
		f.Conf[i] = 1
	}
	_, valid := warpNew(src, f, 0.1)
	if valid.At(2, 16) != 0 {
		t.Fatal("out-of-bounds sample not masked")
	}
	if valid.At(20, 16) != 1 {
		t.Fatal("in-bounds sample masked")
	}
}

func TestBackwardMasksLowConfidence(t *testing.T) {
	src := texture(4, 32, 32)
	f := flow.NewField(32, 32)
	for i := range f.Conf {
		f.Conf[i] = 0.05
	}
	_, valid := warpNew(src, f, 0.3)
	if _, max := valid.MinMax(); max != 0 {
		t.Fatal("low-confidence pixels not masked")
	}
}

func TestWarpClosesMotionLoop(t *testing.T) {
	// Estimate flow on a known translation, warp, and require a close
	// match: the flow/warp pair must be consistent end-to-end.
	prev := texture(5, 96, 64)
	cur := vmath.NewPlane(96, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 96; x++ {
			cur.Set(x, y, prev.AtClamp(x+3, y+2))
		}
	}
	f := flow.Estimate(prev, cur, flow.Options{})
	out, _ := warpNew(prev, f, 0)
	if p := metrics.PSNR(cur, out); p < 30 {
		t.Fatalf("flow+warp reconstruction only %v dB", p)
	}
}

func TestBackwardPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	warpNew(vmath.NewPlane(8, 8), flow.NewField(9, 8), 0)
}

func BenchmarkBackward270p(b *testing.B) {
	src := texture(1, 480, 270)
	f := flow.NewField(480, 270)
	for i := range f.U {
		f.U[i] = 2
		f.Conf[i] = 1
	}
	out, valid := vmath.NewPlane(480, 270), vmath.NewPlane(480, 270)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BackwardInto(out, valid, src, f, 0.1)
	}
}
