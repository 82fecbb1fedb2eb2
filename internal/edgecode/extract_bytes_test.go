package edgecode

import (
	"math/rand"
	"testing"

	"nerve/internal/video"
	"nerve/internal/vmath"
)

// At 2× code resolution the resize stage is the identity in both paths,
// so the byte extractor's squared-domain pipeline must reproduce the
// float extractor's Bits exactly — across whole sequences, with the
// temporal history blend active. This is the differential anchor of the
// fixed-point code path: any rounding regression in the byte tier shows
// up here as a nonzero Hamming distance.
func TestExtractBytesMatchesFloatAtCodeRes(t *testing.T) {
	for _, cat := range video.Categories() {
		g := video.NewGenerator(cat, 3)
		ef := NewExtractor(0, 0)
		eb := NewExtractor(0, 0)
		bp := vmath.NewBytePlane(2*DefaultW, 2*DefaultH)
		qf := vmath.NewPlane(2*DefaultW, 2*DefaultH)
		for f := 0; f < 5; f++ {
			// Byte-quantise the frame once so both paths see the same
			// pixels (the client's fixed tier holds byte frames anyway).
			bp.FromPlane(g.Render(f, 2*DefaultW, 2*DefaultH))
			bp.ToPlane(qf)
			cf := ef.Extract(qf)
			cb := eb.ExtractBytes(bp)
			h := hamming(t, cf, cb)
			if h != 0 {
				t.Fatalf("%s frame %d: byte code differs from float code in %d bits", cat.Name, f, h)
			}
		}
	}
}

// At other frame sizes the Q15 byte resize may differ from the float
// resize by one LSB per pixel, flipping isolated near-tie bits. Bound:
// 1 bit per 256 (32 bits of the 8192-bit default code), even on
// adversarial uniform-noise planes where every pixel is near a tie.
func TestExtractBytesDriftBoundRandomPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bound := DefaultW * DefaultH / 256
	for _, dims := range [][2]int{{256, 128}, {320, 180}, {640, 360}} {
		for trial := 0; trial < 3; trial++ {
			bp := vmath.NewBytePlane(dims[0], dims[1])
			for i := range bp.Pix {
				bp.Pix[i] = uint8(rng.Intn(256))
			}
			qf := bp.ToPlane(vmath.NewPlane(dims[0], dims[1]))
			cf := NewExtractor(0, 0).Extract(qf)
			cb := NewExtractor(0, 0).ExtractBytes(bp)
			h := hamming(t, cf, cb)
			if h > bound {
				t.Fatalf("%dx%d trial %d: drift %d bits exceeds %d", dims[0], dims[1], trial, h, bound)
			}
		}
	}
}

// ExtractBytes keeps all scratch on the extractor: after the first
// frame the only heap traffic per call is the returned Code with its
// bitmap plus the par.ForRows closure headers inside the byte resize
// (the same small-constant residue TestIntoKernelsZeroPlaneAlloc
// permits in vmath) — the working buffers never touch the heap, unlike
// a float round-trip would.
func TestExtractBytesSteadyStateAllocs(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 5)
	e := NewExtractor(0, 0)
	bp := vmath.NewBytePlane(320, 180)
	bp.FromPlane(g.Render(0, 320, 180))
	e.ExtractBytes(bp) // warm the scratch and the resize tap cache
	allocs := testing.AllocsPerRun(20, func() {
		e.ExtractBytes(bp)
	})
	if allocs > 4 {
		t.Fatalf("steady-state ExtractBytes allocates %.0f objects per call, want ≤4 (Code+Bits and ForRows headers)", allocs)
	}
}

// Reset must clear the byte-tier history as well as the float one, so a
// scene cut restarts He in whichever tier is active.
func TestExtractBytesReset(t *testing.T) {
	g := video.NewGenerator(video.Categories()[1], 9)
	bp := vmath.NewBytePlane(2*DefaultW, 2*DefaultH)
	bp.FromPlane(g.Render(0, 2*DefaultW, 2*DefaultH))

	e := NewExtractor(0, 0)
	first := e.ExtractBytes(bp)
	bp2 := vmath.NewBytePlane(2*DefaultW, 2*DefaultH)
	bp2.FromPlane(g.Render(30, 2*DefaultW, 2*DefaultH))
	e.ExtractBytes(bp2) // pollute the history with a distant frame
	e.Reset()
	again := e.ExtractBytes(bp)
	h := hamming(t, first, again)
	if h != 0 {
		t.Fatalf("code after Reset differs from fresh extraction by %d bits", h)
	}
}

func BenchmarkExtractBytes(b *testing.B) {
	g := video.NewGenerator(video.Categories()[0], 1)
	e := NewExtractor(0, 0)
	bp := vmath.NewBytePlane(640, 360)
	bp.FromPlane(g.Render(0, 640, 360))
	e.ExtractBytes(bp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ExtractBytes(bp)
	}
}
