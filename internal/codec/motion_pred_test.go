package codec

import (
	"testing"

	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

func TestMedian3(t *testing.T) {
	cases := []struct{ a, b, c, want int }{
		{1, 2, 3, 2}, {3, 2, 1, 2}, {2, 3, 1, 2}, {5, 5, 1, 5},
		{1, 5, 5, 5}, {5, 1, 5, 5}, {0, 0, 0, 0}, {-3, 4, 0, 0},
	}
	for _, c := range cases {
		if got := median3(c.a, c.b, c.c); got != c.want {
			t.Fatalf("median3(%d,%d,%d) = %d, want %d", c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestPredictMV(t *testing.T) {
	left := MV{4, -2}
	if got := predictMV(nil, 3, 1, 1, left); got != left {
		t.Fatalf("nil field: got %v, want left %v", got, left)
	}
	// 2×3 previous field.
	prev := []MV{
		{1, 1}, {2, 2}, {3, 3},
		{7, 7}, {8, 8}, {9, 9},
	}
	// Row 1, col 0: top = prev row 0 col 0 = {1,1}, top-right = {2,2},
	// left = {4,-2} → median(4,1,2)=2, median(-2,1,2)=1.
	if got := predictMV(prev, 3, 1, 0, left); got != (MV{2, 1}) {
		t.Fatalf("got %v, want {2 1}", got)
	}
	// Row 0 uses co-located previous-frame vectors (r stays 0).
	if got := predictMV(prev, 3, 0, 0, left); got != (MV{2, 1}) {
		t.Fatalf("row 0: got %v, want {2 1}", got)
	}
	// Last column: top-right falls back to zero.
	if got := predictMV(prev, 3, 1, 2, left); got != (MV{3, 0}) {
		t.Fatalf("last col: got %v, want {3 0}", got)
	}
}

func TestEarlyTermBounds(t *testing.T) {
	if got := earlyTerm(-1, -1); got != earlyTermFloor {
		t.Fatalf("no evidence: %d, want floor %d", got, earlyTermFloor)
	}
	if got := earlyTerm(1<<40, -1); got != earlyTermCap {
		t.Fatalf("huge left SAD: %d, want cap %d", got, earlyTermCap)
	}
	if got := earlyTerm(0, -1); got != earlyTermFloor {
		t.Fatalf("zero left SAD: %d, want floor %d", got, earlyTermFloor)
	}
	// 1.25× the better of the two neighbours.
	if got := earlyTerm(1000, 400); got != 500 {
		t.Fatalf("earlyTerm(1000,400) = %d, want 500", got)
	}
	if got := earlyTerm(400, 1000); got != 500 {
		t.Fatalf("earlyTerm(400,1000) = %d, want 500", got)
	}
}

// translatedPlanes builds a reference plane of smooth noise and a current
// plane translated by (dx, dy) — every interior block has an exact match.
func translatedPlanes(w, h, dx, dy int) (cur, ref *vmath.Plane) {
	g := vmath.NewPlane(w, h)
	for i := range g.Pix {
		g.Pix[i] = float32((uint32(i)*2654435761 + uint32(i/w*97)) % 256)
	}
	ref = vmath.GaussianBlur(g, 1.2)
	cur = vmath.NewPlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cur.Set(x, y, ref.AtClamp(x+dx, y+dy))
		}
	}
	return cur, ref
}

// TestSearchTelemetryCounters drives a full-frame search with telemetry on
// and checks the three pruning counters move: points always, early_terms
// on translated content (after the first block of a row finds the shift,
// its neighbours' seeded match is at the adaptive threshold), and
// sad.early_exits on content where most candidates lose quickly.
func TestSearchTelemetryCounters(t *testing.T) {
	telemetry.Enable(true)
	defer telemetry.Enable(false)
	cur, ref := translatedPlanes(160, 96, 3, 1)
	p0 := cSearchPoints.Value()
	e0 := cEarlyTerms.Value()
	x0 := cSADEarlyExit.Value()
	SearchFrame(cur, ref, 15)
	if d := cSearchPoints.Value() - p0; d <= 0 {
		t.Fatalf("search.points moved by %d, want > 0", d)
	}
	if d := cEarlyTerms.Value() - e0; d <= 0 {
		t.Fatalf("search.early_terms moved by %d, want > 0 on translated content", d)
	}
	if d := cSADEarlyExit.Value() - x0; d <= 0 {
		t.Fatalf("sad.early_exits moved by %d, want > 0", d)
	}
}

// TestSearchFramePredFindsTranslation: with a previous-frame motion field
// pointing at the right shift, the predictive search must find the exact
// vector for every interior macroblock.
func TestSearchFramePredFindsTranslation(t *testing.T) {
	cur, ref := translatedPlanes(160, 96, 4, -2)
	mbRows, mbCols := 96/MBSize, 160/MBSize
	prev := make([]MV, mbRows*mbCols)
	for i := range prev {
		prev[i] = MV{4, -2}
	}
	mvs := SearchFramePredInto(nil, prev, cur, ref, 15)
	for row := 1; row < mbRows-1; row++ {
		for col := 1; col < mbCols-1; col++ {
			if mv := mvs[row*mbCols+col]; mv != (MV{4, -2}) {
				t.Fatalf("mb (%d,%d): mv %v, want {4 -2}", row, col, mv)
			}
		}
	}
}

// TestSearchFramePredParallelBitExact: the predictive search — temporal
// seeds, adaptive termination and all — must return identical vectors for
// any worker-pool size.
func TestSearchFramePredParallelBitExact(t *testing.T) {
	frames := testClip(t, 3)
	restore := par.SetWorkers(1)
	prev := SearchFrame(frames[1], frames[0], 15)
	want := SearchFramePredInto(nil, prev, frames[2], frames[1], 15)
	restore()
	for _, workers := range []int{2, 8} {
		restore := par.SetWorkers(workers)
		got := SearchFramePredInto(nil, prev, frames[2], frames[1], 15)
		restore()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: mv %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEncoderReencodeReplayBitExact forces the rate-control re-encode path
// (a tiny budget guarantees the first attempt overshoots) and checks the
// replayed second attempt produces a stream the decoder reconstructs
// exactly — i.e. cached mode/MV fields reproduce what a fresh search would
// have decided.
func TestEncoderReencodeReplayBitExact(t *testing.T) {
	frames := testClip(t, 8)
	cfg := Config{W: 160, H: 96, GOP: 4, TargetBitrate: 80e3, FPS: 30}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	for i, f := range frames {
		ef := enc.Encode(f)
		res, err := dec.Decode(ef, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		for pi := range res.Frame.Pix {
			if res.Frame.Pix[pi] != ef.Recon.Pix[pi] {
				t.Fatalf("frame %d: decode differs from recon at pixel %d", i, pi)
			}
		}
		vmath.Put(res.Mask)
	}
}
