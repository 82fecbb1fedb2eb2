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
// two-kernel composite (SharpenBytesInto, then ResizeBilinearBytesInto) at
// pool sizes 1, 2 and 8, on the fused 2× path for every sharpen amount
// and on the unfused path at 3×.
func TestFastUpscaleParallelBitExact(t *testing.T) {
	cases := []struct {
		lrW, lrH, outW, outH int
		boost                float32 // 0: the default amount for the ratio
	}{
		{97, 53, 194, 106, 0},
		{97, 53, 194, 106, 1.0 / 256},
		{97, 53, 194, 106, 90.0 / 256},
		{97, 53, 194, 106, 255.0 / 256},
		{160, 90, 320, 180, 0},
		{64, 36, 192, 108, 0}, // 3×: sharpen plane + generic resize
	}
	for _, c := range cases {
		lr := randomByteLR(c.lrW, c.lrH, int64(c.lrW+c.outW))
		for _, workers := range []int{1, 2, 8} {
			restore := par.SetWorkers(workers)
			fu := NewFast(Config{OutW: c.outW, OutH: c.outH, DetailBoost: c.boost})
			sharp := vmath.SharpenBytesInto(vmath.NewBytePlane(c.lrW, c.lrH), lr, fu.boost256(c.lrW))
			want := vmath.ResizeBilinearBytesInto(vmath.NewBytePlane(c.outW, c.outH), sharp)
			got := vmath.NewBytePlane(c.outW, c.outH)
			for i := range got.Pix {
				got.Pix[i] = 0xAA // dirty, as from the pool
			}
			fu.UpscaleBytesInto(got, lr)
			restore()
			for i := range want.Pix {
				if got.Pix[i] != want.Pix[i] {
					t.Fatalf("%dx%d → %dx%d boost %v workers=%d: pixel %d is %d, composite %d",
						c.lrW, c.lrH, c.outW, c.outH, c.boost, workers, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

// TestFastUpscaleFloatMatchesBytePath: Upscale's float front end is
// bit-identical to shadowing lr with FromPlane, running UpscaleBytesInto
// and converting back with ToPlane, on fractional inputs outside
// [0, 255], at every sharpen regime and at pool sizes 1, 2 and 8.
func TestFastUpscaleFloatMatchesBytePath(t *testing.T) {
	for _, sz := range []struct{ w, h int }{{960, 540}, {97, 53}, {33, 17}, {5, 3}, {2, 2}, {1, 1}} {
		lr := noisyPlane(sz.w, sz.h, int64(sz.w+7*sz.h))
		for _, boost := range []float32{0, 90.0 / 256, -1} { // a256 = 20 at 2×, 90, none
			cfg := Config{OutW: 2 * sz.w, OutH: 2 * sz.h, DetailBoost: boost}
			want := NewFast(cfg).UpscaleBytesInto(vmath.NewBytePlane(cfg.OutW, cfg.OutH),
				vmath.NewBytePlane(sz.w, sz.h).FromPlane(lr)).ToPlane(vmath.NewPlane(cfg.OutW, cfg.OutH))
			for _, workers := range []int{1, 2, 8} {
				restore := par.SetWorkers(workers)
				got := NewFast(cfg).Upscale(lr)
				restore()
				for i := range want.Pix {
					if got.Pix[i] != want.Pix[i] {
						t.Fatalf("%dx%d boost %v workers=%d: pixel %d is %v, byte path %v",
							sz.w, sz.h, boost, workers, i, got.Pix[i], want.Pix[i])
					}
				}
				vmath.Put(got)
			}
		}
	}
}
