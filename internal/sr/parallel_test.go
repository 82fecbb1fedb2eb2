package sr

import (
	"testing"

	"nerve/internal/par"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// upscaleClip runs a fresh SuperResolver over the clip at the given pool
// size, exercising the temporal-fusion path from the second frame on.
func upscaleClip(lr []*vmath.Plane, workers int) []*vmath.Plane {
	defer par.SetWorkers(workers)()
	s := New(Config{OutW: gtW, OutH: gtH})
	out := make([]*vmath.Plane, len(lr))
	for i, f := range lr {
		out[i] = s.Upscale(f)
	}
	return out
}

// TestUpscaleParallelBitExact is the SR differential test of the
// concurrency model: the full stateful Upscale stream — bicubic base,
// flow-aligned temporal fusion, back-projection, detail head — must be
// byte-identical for any pool size. Temporal state feeds forward, so a
// single diverging pixel would compound across the clip and fail loudly.
func TestUpscaleParallelBitExact(t *testing.T) {
	_, lr := clipPair(video.Categories()[0], 5, 10, 6, lrW, lrH)

	want := upscaleClip(lr, 1)
	for _, workers := range []int{2, 8} {
		got := upscaleClip(lr, workers)
		for fi := range want {
			for i := range want[fi].Pix {
				if got[fi].Pix[i] != want[fi].Pix[i] {
					t.Fatalf("workers=%d frame %d: differs at pixel %d: %v vs %v",
						workers, fi, i, got[fi].Pix[i], want[fi].Pix[i])
				}
			}
		}
	}
}

// TestUpscaleBaselinesParallelBitExact covers the stateless Fig. 10/11
// baselines.
func TestUpscaleBaselinesParallelBitExact(t *testing.T) {
	_, lr := clipPair(video.Categories()[1], 6, 0, 1, lrW, lrH)

	restore := par.SetWorkers(1)
	wantBil := UpscaleBilinear(lr[0], gtW, gtH)
	wantBic := UpscaleBicubic(lr[0], gtW, gtH)
	restore()
	for _, workers := range []int{2, 8} {
		restore := par.SetWorkers(workers)
		gotBil := UpscaleBilinear(lr[0], gtW, gtH)
		gotBic := UpscaleBicubic(lr[0], gtW, gtH)
		restore()
		for i := range wantBil.Pix {
			if gotBil.Pix[i] != wantBil.Pix[i] {
				t.Fatalf("workers=%d: bilinear differs at pixel %d", workers, i)
			}
			if gotBic.Pix[i] != wantBic.Pix[i] {
				t.Fatalf("workers=%d: bicubic differs at pixel %d", workers, i)
			}
		}
	}
}

func benchUpscale(b *testing.B, workers int) {
	defer par.SetWorkers(workers)()
	g := video.NewGenerator(video.Categories()[0], 1)
	lr := vmath.ResizeBilinear(g.Render(0, 480, 270), 120, 68)
	s := New(Config{OutW: 480, OutH: 270})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Upscale(lr)
	}
}

// BenchmarkUpscale is the sequential baseline (pool pinned to 1).
func BenchmarkUpscale(b *testing.B) { benchUpscale(b, 1) }

// BenchmarkUpscaleParallel runs the same upscale on the full pool; run with
// -cpu 1,4 to see the scaling. BenchmarkUpscale4x (sr_test.go) also uses
// the full pool.
func BenchmarkUpscaleParallel(b *testing.B) { benchUpscale(b, 0) }

// TestFastUpscaleParallelBitExact: the byte head is bit-identical to the
// byte bilinear resize at pool sizes 1, 2 and 8, on the exact-2× kernel
// and on the generic one at 3×.
func TestFastUpscaleParallelBitExact(t *testing.T) {
	cases := []struct{ lrW, lrH, outW, outH int }{
		{97, 53, 194, 106},
		{160, 90, 320, 180},
		{64, 36, 192, 108}, // 3×: byte shadows + generic resize
	}
	for _, c := range cases {
		lr := randomLR(c.lrW, c.lrH, int64(c.lrW+c.outW))
		want := byteResize(lr, c.outW, c.outH)
		for _, workers := range []int{1, 2, 8} {
			restore := par.SetWorkers(workers)
			got := NewFast(Config{OutW: c.outW, OutH: c.outH}).UpscaleInto(dirtyPlane(c.outW, c.outH), lr)
			restore()
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%dx%d → %dx%d workers=%d: pixel %d is %v, byte resize %v",
						c.lrW, c.lrH, c.outW, c.outH, workers, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

// TestFastUpscaleFloatMatchesBytePath: the head is bit-identical to
// ToPlane(ResizeBilinearBytesInto(FromPlane(lr))) on fractional inputs
// outside [0, 255], at 2× from the play geometry down to one-pixel-wide
// frames and at one non-2× ratio, for pool sizes 1, 2 and 8. Each head
// runs twice into a dirty destination, so the second call reuses the row
// cache the first sized.
func TestFastUpscaleFloatMatchesBytePath(t *testing.T) {
	for _, c := range []struct{ lrW, lrH, outW, outH int }{
		{960, 540, 1920, 1080}, {97, 53, 194, 106}, {33, 17, 66, 34},
		{5, 3, 10, 6}, {2, 2, 4, 4}, {1, 1, 2, 2}, {1, 17, 2, 34},
		{160, 90, 240, 135},
	} {
		lr := noisyPlane(c.lrW, c.lrH, int64(c.lrW+7*c.lrH))
		want := byteResize(lr, c.outW, c.outH)
		for _, workers := range []int{1, 2, 8} {
			restore := par.SetWorkers(workers)
			fu := NewFast(Config{OutW: c.outW, OutH: c.outH})
			got := [2]*vmath.Plane{
				fu.UpscaleInto(dirtyPlane(c.outW, c.outH), lr),
				fu.UpscaleInto(dirtyPlane(c.outW, c.outH), lr),
			}
			restore()
			for pass, g := range got {
				for i := range want.Pix {
					if g.Pix[i] != want.Pix[i] {
						t.Fatalf("%dx%d → %dx%d workers=%d pass %d: pixel %d is %v, byte path %v",
							c.lrW, c.lrH, c.outW, c.outH, workers, pass, i, g.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}
