package vmath

import (
	"fmt"
	"testing"

	"nerve/internal/par"
)

// up2xSizes are the LR geometries of the exact-2× differential sweep: the
// play and recovery geometries, an odd size that leaves a half word at the
// row end and a partial last band, and the degenerate corners.
var up2xSizes = []struct{ w, h int }{
	{960, 540}, {480, 270}, {97, 53}, {2, 2}, {1, 1}, {1, 17}, {17, 1},
}

var up2xAmounts = []int32{0, 1, 20, 90, 255}

// up2xOracle is the two-kernel composite the fused kernel must reproduce:
// SharpenBytesInto, then the generic tap-table resize.
func up2xOracle(src *BytePlane, a256 int32) *BytePlane {
	sharp := SharpenBytesInto(NewBytePlane(src.W, src.H), src, a256)
	return resizeBilinearBytesGeneric(NewBytePlane(2*src.W, 2*src.H), sharp)
}

// dirtyBytes returns a w×h plane filled with a non-zero pattern, standing
// in for a destination that comes dirty from the pool.
func dirtyBytes(w, h int) *BytePlane {
	p := NewBytePlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = uint8(i*37 + 11)
	}
	return p
}

// TestUpscale2xMatchesGeneric: the exact-2× kernel, plain and fused with
// the sharpen, is bit-identical to the generic kernel on the oracle corpus
// for every sharpen amount and for pool sizes 1, 2 and 8. One scratch
// slice is reused across every geometry, so stale rows from a larger
// previous call would show.
func TestUpscale2xMatchesGeneric(t *testing.T) {
	scratch := make([]byte, 1<<16)
	for i := range scratch {
		scratch[i] = 0xAA
	}
	for _, sz := range up2xSizes {
		corpus := fixedTestPlanes(sz.w, sz.h, int64(sz.w*1000+sz.h))
		if sz.w*sz.h > 100_000 {
			corpus = corpus[:2] // random + fine checkerboard keep the big sizes quick
		}
		for ci, src := range corpus {
			for _, a := range up2xAmounts {
				want := up2xOracle(src, a)
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("%dx%d corpus %d a256=%d workers=%d", sz.w, sz.h, ci, a, workers)
					restore := par.SetWorkers(workers)
					got := dirtyBytes(2*sz.w, 2*sz.h)
					scratch = SharpenUpscale2xBytesInto(got, src, a, scratch)
					var plain *BytePlane
					if a == 0 {
						plain = ResizeBilinearBytesInto(dirtyBytes(2*sz.w, 2*sz.h), src)
					}
					restore()
					if d := maxAbsDiffBytes(t, got, want); d != 0 {
						t.Fatalf("%s: fused kernel differs from sharpen+generic resize by %d", name, d)
					}
					if plain != nil {
						if d := maxAbsDiffBytes(t, plain, want); d != 0 {
							t.Fatalf("%s: ResizeBilinearBytesInto differs from the generic kernel by %d", name, d)
						}
					}
				}
			}
		}
	}
}

// TestUpscale2xScratchGrowsOnce: a nil scratch is sized on the first call
// and reused, not reallocated, at the same geometry.
func TestUpscale2xScratchGrowsOnce(t *testing.T) {
	src := fixedTestPlanes(33, 20, 3)[0]
	dst := NewBytePlane(66, 40)
	s := SharpenUpscale2xBytesInto(dst, src, 20, nil)
	if len(s) == 0 {
		t.Fatal("scratch not allocated")
	}
	if s2 := SharpenUpscale2xBytesInto(dst, src, 20, s); &s2[0] != &s[0] {
		t.Fatal("scratch reallocated at a fixed geometry")
	}
	if s3 := SharpenUpscale2xBytesInto(dst, src, 0, s); &s3[0] != &s[0] {
		t.Fatal("the plain resize needs less scratch than the fused one")
	}
}

// TestUpscale2xRejectsOtherRatios: the fused entry point is 2× only.
func TestUpscale2xRejectsOtherRatios(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a 1.5× destination")
		}
	}()
	SharpenUpscale2xBytesInto(NewBytePlane(30, 30), NewBytePlane(20, 20), 20, nil)
}

func benchResizeBytes(b *testing.B, sw, sh, dw, dh int) {
	src := goldenResizeSource(sw, sh, 11)
	dst := NewBytePlane(dw, dh)
	b.SetBytes(int64(len(dst.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinearBytesInto(dst, src)
	}
}

// BenchmarkResizeBilinearBytes2x540p is fixed recovery's finishing resize
// (480×270 → 960×540) on the exact-2× kernel.
func BenchmarkResizeBilinearBytes2x540p(b *testing.B) { benchResizeBytes(b, 480, 270, 960, 540) }

// BenchmarkResizeBilinearBytes720to1080p is a 1.5× resize, which stays on
// the generic tap-table kernel.
func BenchmarkResizeBilinearBytes720to1080p(b *testing.B) {
	benchResizeBytes(b, 1280, 720, 1920, 1080)
}
