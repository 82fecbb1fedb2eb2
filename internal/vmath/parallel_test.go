package vmath

import (
	"math/rand"
	"testing"

	"nerve/internal/par"
)

// TestResizeParallelBitExact is the vmath differential test of the
// concurrency model: every resampler must produce byte-identical planes
// with a single-worker pool and with a large pool, across sizes that hit
// partial row bands and edge clamping.
func TestResizeParallelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := randomPlane(rng, 161, 97)
	kernels := map[string]func() *Plane{
		"nearest-up":    func() *Plane { return ResizeNearest(src, 320, 180) },
		"nearest-down":  func() *Plane { return ResizeNearest(src, 40, 23) },
		"bilinear-up":   func() *Plane { return ResizeBilinear(src, 320, 180) },
		"bilinear-down": func() *Plane { return ResizeBilinear(src, 40, 23) },
		"bicubic-up":    func() *Plane { return ResizeBicubic(src, 320, 180) },
		"bicubic-down":  func() *Plane { return ResizeBicubic(src, 40, 23) },
		"downsample":    func() *Plane { return DownsampleInto(NewPlane(80, 32), src, 2, 3) },
		"gradients":     func() *Plane { return GradientMagnitudeInto(nil, src) },
		"conv-sep":      func() *Plane { return GaussianBlur(src, 1.2) },
	}
	for name, k := range kernels {
		restore := par.SetWorkers(1)
		want := k()
		restore()
		for _, workers := range []int{2, 8} {
			restore := par.SetWorkers(workers)
			got := k()
			restore()
			if got.W != want.W || got.H != want.H {
				t.Fatalf("%s: size %dx%d vs %dx%d", name, got.W, got.H, want.W, want.H)
			}
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%s: workers=%d differs from sequential at pixel %d: %v vs %v",
						name, workers, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

func BenchmarkResizeBicubic4x(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := randomPlane(rng, 120, 68)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBicubic(src, 480, 270)
	}
}
