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

// dirtyBytes returns a w×h plane filled with a non-zero pattern, standing
// in for a destination that comes dirty from the pool.
func dirtyBytes(w, h int) *BytePlane {
	p := NewBytePlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = uint8(i*37 + 11)
	}
	return p
}

// TestUpscale2xMatchesGeneric: the exact-2× kernel is bit-identical to the
// generic kernel on the oracle corpus for pool sizes 1, 2 and 8, behind
// both of its ends: ResizeBilinearBytesInto's 2× dispatch on byte planes
// and Upscale2xInto on their float shadows. One dirty scratch slice is
// reused across every geometry, so stale rows from a larger previous call
// would show.
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
			want := resizeBilinearBytesGeneric(NewBytePlane(2*sz.w, 2*sz.h), src)
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("%dx%d corpus %d workers=%d", sz.w, sz.h, ci, workers)
				restore := par.SetWorkers(workers)
				got := ResizeBilinearBytesInto(dirtyBytes(2*sz.w, 2*sz.h), src)
				gotF := dirtyBytes(2*sz.w, 2*sz.h).ToPlane(NewPlane(2*sz.w, 2*sz.h))
				scratch = Upscale2xInto(gotF, src.ToPlane(NewPlane(sz.w, sz.h)), scratch)
				restore()
				if d := maxAbsDiffBytes(t, got, want); d != 0 {
					t.Fatalf("%s: ResizeBilinearBytesInto differs from the generic kernel by %d", name, d)
				}
				if d := maxAbsDiffBytes(t, NewBytePlane(2*sz.w, 2*sz.h).FromPlane(gotF), want); d != 0 {
					t.Fatalf("%s: Upscale2xInto differs from the generic kernel by %d", name, d)
				}
			}
		}
	}
}

// TestUpscale2xScratchGrowsOnce: a nil scratch is sized on the first call
// and reused, not reallocated, at the same geometry.
func TestUpscale2xScratchGrowsOnce(t *testing.T) {
	src := fixedTestPlanes(33, 20, 3)[0].ToPlane(NewPlane(33, 20))
	dst := NewPlane(66, 40)
	s := Upscale2xInto(dst, src, nil)
	if len(s) == 0 {
		t.Fatal("scratch not allocated")
	}
	if s2 := Upscale2xInto(dst, src, s); &s2[0] != &s[0] {
		t.Fatal("scratch reallocated at a fixed geometry")
	}
}

// TestUpscale2xRejectsOtherRatios: the float entry point is 2× only.
func TestUpscale2xRejectsOtherRatios(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a 1.5× destination")
		}
	}()
	Upscale2xInto(NewPlane(30, 30), NewPlane(20, 20), nil)
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
