package warp

import (
	"testing"

	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/vmath"
)

// TestBackwardParallelBitExact is the warp differential test of the
// concurrency model: warping with a single-worker pool and with a large
// pool must produce byte-identical output and validity planes.
func TestBackwardParallelBitExact(t *testing.T) {
	src := texture(9, 161, 97)
	f := flow.NewField(161, 97)
	for i := range f.U {
		f.U[i] = float32(i%7) - 3.25
		f.V[i] = float32(i%5) - 1.5
		f.Conf[i] = float32(i%3) / 2
	}

	restore := par.SetWorkers(1)
	wantOut, wantValid := warpNew(src, f, 0.3)
	restore()
	for _, workers := range []int{2, 8} {
		restore := par.SetWorkers(workers)
		gotOut, gotValid := warpNew(src, f, 0.3)
		restore()
		for i := range wantOut.Pix {
			if gotOut.Pix[i] != wantOut.Pix[i] {
				t.Fatalf("workers=%d: warp differs at pixel %d", workers, i)
			}
			if gotValid.Pix[i] != wantValid.Pix[i] {
				t.Fatalf("workers=%d: valid mask differs at pixel %d", workers, i)
			}
		}
	}
}

func benchBackward(b *testing.B, workers int) {
	defer par.SetWorkers(workers)()
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

// BenchmarkWarp is the sequential baseline (pool pinned to 1).
func BenchmarkWarp(b *testing.B) { benchBackward(b, 1) }

// BenchmarkWarpParallel runs the same warp on the full pool; run with
// -cpu 1,4 to see the scaling.
func BenchmarkWarpParallel(b *testing.B) { benchBackward(b, 0) }
