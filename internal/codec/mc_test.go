package codec

import (
	"math/rand"
	"testing"

	"nerve/internal/vmath"
)

// mcClamped is the per-pixel clamped prediction the fast paths of mcMB and
// writeInterMC must reproduce: every read through AtClamp.
func mcClamped(ref, dst *vmath.Plane, x0, y0, size int, mv MV, rec *[64]float32) {
	for y := 0; y < size && y0+y < dst.H; y++ {
		for x := 0; x < size && x0+x < dst.W; x++ {
			p := ref.AtClamp(x0+x+mv.X, y0+y+mv.Y)
			if rec != nil {
				p = clamp255(p + rec[y*8+x])
			}
			dst.Pix[(y0+y)*dst.W+x0+x] = p
		}
	}
}

// TestMCFastPathsMatchClamped: on a frame whose size is a multiple of
// neither block size, mcMB and writeInterMC match the clamped loop for
// every block and for vectors that reach past every edge and corner, or
// stay just inside.
func TestMCFastPathsMatchClamped(t *testing.T) {
	const w, h = 53, 38
	rng := rand.New(rand.NewSource(5))
	ref := vmath.NewPlane(w, h)
	for i := range ref.Pix {
		ref.Pix[i] = 255 * rng.Float32()
	}
	var rec [64]float32
	for i := range rec {
		rec[i] = 120 * (rng.Float32() - 0.5) // pushes some pixels past 0 and 255
	}
	d := NewDecoder(Config{W: w, H: h})
	d.SetReference(ref)
	got, want := vmath.NewPlane(w, h), vmath.NewPlane(w, h)
	var mvs []MV
	for _, dy := range []int{-h - 3, -40, -17, -16, -9, -8, -1, 0, 1, 5, 8, 16, 22, 37, h + 2} {
		for _, dx := range []int{-w - 1, -48, -17, -16, -9, -8, -1, 0, 1, 7, 8, 16, 37, 45, w + 4} {
			mvs = append(mvs, MV{dx, dy})
		}
	}
	for _, mv := range mvs {
		for cy := 0; cy < h; cy += MBSize {
			for cx := 0; cx < w; cx += MBSize {
				got.Fill(-1)
				want.Fill(-1)
				mcMB(ref, got, cx, cy, mv, w, h)
				mcClamped(ref, want, cx, cy, MBSize, mv, nil)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("mcMB block (%d,%d) mv %v: pixel %d is %v, clamped %v", cx, cy, mv, i, got.Pix[i], want.Pix[i])
				}
			}
		}
		for y0 := 0; y0 < h; y0 += blockSize {
			for x0 := 0; x0 < w; x0 += blockSize {
				got.Fill(-1)
				want.Fill(-1)
				d.writeInterMC(got, x0, y0, mv, &rec)
				mcClamped(ref, want, x0, y0, blockSize, mv, &rec)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("writeInterMC block (%d,%d) mv %v: pixel %d is %v, clamped %v", x0, y0, mv, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

func firstDiff(a, b *vmath.Plane) int {
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return i
		}
	}
	return -1
}
