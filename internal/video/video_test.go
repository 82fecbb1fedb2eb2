package video

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nerve/internal/metrics"
	"nerve/internal/vmath"
)

func TestLadder(t *testing.T) {
	rs := Resolutions()
	if len(rs) != 5 {
		t.Fatalf("ladder size %d", len(rs))
	}
	wantKbps := []int{512, 1024, 1600, 2640, 4400}
	wantH := []int{240, 360, 480, 720, 1080}
	for i, r := range rs {
		if r.Kbps() != wantKbps[i] {
			t.Errorf("%v kbps=%d want %d", r, r.Kbps(), wantKbps[i])
		}
		w, h := r.Dims()
		if h != wantH[i] {
			t.Errorf("%v height=%d want %d", r, h, wantH[i])
		}
		// Widths are the conventional rounded-to-even 16:9 values;
		// allow up to 2px of rounding (426×240, 854×480).
		if d := w*9 - h*16; d < -18 || d > 18 {
			t.Errorf("%v not ~16:9: %dx%d", r, w, h)
		}
	}
	if R1080.Bitrate() != 4400000 {
		t.Errorf("Bitrate=%v", R1080.Bitrate())
	}
}

func TestCategories(t *testing.T) {
	cats := Categories()
	if len(cats) != 10 {
		t.Fatalf("want 10 categories, got %d", len(cats))
	}
	seen := map[string]bool{}
	for _, c := range cats {
		if seen[c.Name] {
			t.Errorf("duplicate category %q", c.Name)
		}
		seen[c.Name] = true
		if c.Objects <= 0 || c.Speed <= 0 || c.CutEvery <= 0 {
			t.Errorf("category %q has non-positive parameters", c.Name)
		}
	}
	if _, err := CategoryByName("GamePlay"); err != nil {
		t.Errorf("CategoryByName(GamePlay): %v", err)
	}
	if _, err := CategoryByName("nope"); err == nil {
		t.Error("CategoryByName should fail for unknown name")
	}
}

func TestRenderDeterministic(t *testing.T) {
	g := NewGenerator(Categories()[0], 7)
	a := g.Render(12, 64, 36)
	b := g.Render(12, 64, 36)
	if d := vmath.MAE(a, b); d != 0 {
		t.Fatalf("render not deterministic: %v", d)
	}
}

func TestRenderSeedsDiffer(t *testing.T) {
	cat := Categories()[0]
	a := NewGenerator(cat, 1).Render(5, 64, 36)
	b := NewGenerator(cat, 2).Render(5, 64, 36)
	if d := vmath.MAE(a, b); d < 1 {
		t.Fatalf("different seeds produced near-identical frames (MAE %v)", d)
	}
}

func TestRenderRange(t *testing.T) {
	g := NewGenerator(Categories()[3], 3)
	p := g.Render(40, 80, 45)
	min, max := p.MinMax()
	if min < 0 || max > 255 {
		t.Fatalf("out of range: %v..%v", min, max)
	}
	if max-min < 30 {
		t.Fatalf("frame nearly flat: %v..%v", min, max)
	}
}

func TestTemporalCoherence(t *testing.T) {
	// Consecutive frames must be far more similar than frames across a
	// scene cut — this is the property recovery exploits.
	cat := Categories()[1] // HowTo: CutEvery=360
	g := NewGenerator(cat, 5)
	f10 := g.Render(10, 96, 54)
	f11 := g.Render(11, 96, 54)
	fCutA := g.Render(359, 96, 54)
	fCutB := g.Render(360, 96, 54)
	adjacent := metrics.PSNR(f10, f11)
	acrossCut := metrics.PSNR(fCutA, fCutB)
	if adjacent < 25 {
		t.Fatalf("adjacent frames too different: %v dB", adjacent)
	}
	if adjacent <= acrossCut+5 {
		t.Fatalf("scene cut not visible: adjacent %v dB, across cut %v dB", adjacent, acrossCut)
	}
}

func TestMotionPresent(t *testing.T) {
	// Over 15 frames the scene must change measurably (objects move).
	g := NewGenerator(Categories()[3], 9) // GamePlay: fast
	a := g.Render(30, 96, 54)
	b := g.Render(45, 96, 54)
	if p := metrics.PSNR(a, b); p > 32 {
		t.Fatalf("no visible motion across 15 frames: %v dB", p)
	}
}

func TestCrossResolutionConsistency(t *testing.T) {
	// A frame rendered small should approximate the downscaled large
	// render of the same frame.
	g := NewGenerator(Categories()[8], 2) // Education: low noise
	small := g.Render(20, 80, 45)
	large := g.Render(20, 320, 180)
	down := vmath.ResizeBilinear(large, 80, 45)
	if p := metrics.PSNR(small, down); p < 24 {
		t.Fatalf("cross-resolution inconsistency: %v dB", p)
	}
}

func TestDatasetSplit(t *testing.T) {
	d := NewDataset()
	if len(d.Train) != 40 || len(d.Test) != 10 {
		t.Fatalf("split %d/%d", len(d.Train), len(d.Test))
	}
	seeds := map[int64]bool{}
	for _, s := range append(append([]ClipSource{}, d.Train...), d.Test...) {
		if seeds[s.Seed] {
			t.Fatalf("duplicate seed %d", s.Seed)
		}
		seeds[s.Seed] = true
	}
	// Each test clip's generator must work.
	p := d.Test[0].Generator().Render(0, 32, 18)
	if p.W != 32 {
		t.Fatal("generator broken")
	}
}

func TestNewContentAppears(t *testing.T) {
	// Categories with SpawnRate > 0 must introduce objects mid-segment:
	// render a late frame and an early frame of the same segment and
	// check they differ beyond pure motion of initial objects. We verify
	// via object birth bookkeeping instead of pixels for robustness.
	g := NewGenerator(Categories()[3], 4) // GamePlay SpawnRate=1.0
	objs := g.objects(0)
	births := 0
	for _, o := range objs {
		if o.birth > 0 {
			births++
		}
	}
	if births == 0 {
		t.Fatal("no spawned objects in a high-spawn category")
	}
}

func TestValueNoiseProperties(t *testing.T) {
	// A 5×4 table placed so the sample's cell is inside it, on its last
	// row or column (a cell whose corners leave the table) or just before
	// it: table reads and the hashing fallback must both give the
	// reference noise exactly.
	var l lattice
	f := func(seed uint64, xi, yi int16, dx, dy uint8) bool {
		x := float64(xi) / 7
		y := float64(yi) / 7
		l.fill(seed, int64(math.Floor(x))+1-int64(dx%6), int64(math.Floor(y))+1-int64(dy%5), 5, 4)
		v := l.noise(x, y)
		return v >= 0 && v <= 1 && math.Float64bits(v) == math.Float64bits(valueNoise2D(seed, x, y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Continuity: nearby points have nearby noise.
	l.fill(42, 0, 0, 18, 4)
	for i := 0; i < 50; i++ {
		x := float64(i) * 0.317
		a := l.noise(x, 1.5)
		b := l.noise(x+0.001, 1.5)
		if math.Abs(a-b) > 0.02 {
			t.Fatalf("noise discontinuous at %v: %v vs %v", x, a, b)
		}
	}
}

func TestSegmentBoundaries(t *testing.T) {
	g := NewGenerator(Category{Name: "x", Objects: 1, Speed: 1, CutEvery: 10}, 1)
	seg, off := g.segment(0)
	if seg != 0 || off != 0 {
		t.Fatalf("segment(0)=%d,%d", seg, off)
	}
	seg, off = g.segment(25)
	if seg != 2 || off != 5 {
		t.Fatalf("segment(25)=%d,%d", seg, off)
	}
	g2 := NewGenerator(Category{Name: "y", Objects: 1, Speed: 1, CutEvery: 0}, 1)
	seg, off = g2.segment(99)
	if seg != 0 || off != 99 {
		t.Fatalf("no-cut segment(99)=%d,%d", seg, off)
	}
}

// renderRef is Render's oracle: the same scene evaluated one pixel at a
// time, every pixel hashing its own lattice points. It shares objects, pos and the rounding
// guards (DESIGN.md §10) with Render, so the two must agree to the bit on
// every platform.

// valueNoise2D returns smooth value noise at continuous (x, y) for the given
// lattice seed, in [0,1].
func valueNoise2D(seed uint64, x, y float64) float64 {
	x0 := math.Floor(x)
	y0 := math.Floor(y)
	fx := x - x0
	fy := y - y0
	// Smoothstep fade for C1 continuity.
	sx := fx * fx * (3 - float64(2*fx))
	sy := fy * fy * (3 - float64(2*fy))
	ix0 := uint64(int64(x0))
	iy0 := uint64(int64(y0))
	v00 := hashUnit(seed, ix0, iy0)
	v10 := hashUnit(seed, ix0+1, iy0)
	v01 := hashUnit(seed, ix0, iy0+1)
	v11 := hashUnit(seed, ix0+1, iy0+1)
	top := v00 + float64(sx*(v10-v00))
	bot := v01 + float64(sx*(v11-v01))
	return top + float64(sy*(bot-top))
}

// fbm2D is two-octave fractal value noise in [0,1].
func fbm2D(seed uint64, x, y float64) float64 {
	return float64(valueNoise2D(seed, x, y)*0.65) + float64(valueNoise2D(seed^0xabcdef, x*2.7, y*2.7)*0.35)
}

// renderRef draws frame t at w×h pixels one pixel at a time.
func (g *Generator) renderRef(t, w, h int) *vmath.Plane {
	seg, off := g.segment(t)
	segKey := splitmix64(g.Seed ^ uint64(seg)*0x9e37)
	objs := g.objects(seg)

	panX := g.Cat.Speed * 0.08 * float64(off) / FPS
	panY := g.Cat.Speed * 0.03 * float64(off) / FPS

	bgSeed := splitmix64(segKey ^ 0xbac)
	texAmp := 60 * g.Cat.Texture

	out := vmath.NewPlane(w, h)
	for py := 0; py < h; py++ {
		ny := float64(py) / float64(h)
		for px := 0; px < w; px++ {
			nx := float64(px) / float64(w)
			v := 70 + float64(60*nx) + float64(30*ny)
			v += float64(texAmp * (fbm2D(bgSeed, float64(nx*6)+panX, float64(ny*6)+panY) - 0.5))
			out.Pix[py*w+px] = float32(v)
		}
	}

	for i := range objs {
		o := &objs[i]
		if off < o.birth {
			continue
		}
		ox, oy := o.pos(off)
		x0 := int((ox - float64(o.rx*1.3)) * float64(w))
		x1 := int((ox + float64(o.rx*1.3)) * float64(w))
		y0 := int((oy - float64(o.ry*1.3)) * float64(h))
		y1 := int((oy + float64(o.ry*1.3)) * float64(h))
		if x1 < 0 || y1 < 0 || x0 >= w || y0 >= h {
			continue
		}
		x0, y0 = max(x0, 0), max(y0, 0)
		x1, y1 = min(x1, w-1), min(y1, h-1)
		cosA := math.Cos(o.angle)
		sinA := math.Sin(o.angle)
		for py := y0; py <= y1; py++ {
			ny := float64(py)/float64(h) - oy
			for px := x0; px <= x1; px++ {
				nx := float64(px)/float64(w) - ox
				ex := (float64(nx*cosA) + float64(ny*sinA)) / o.rx
				ey := (float64(-nx*sinA) + float64(ny*cosA)) / o.ry
				d := float64(ex*ex) + float64(ey*ey)
				if d >= 1 {
					continue
				}
				alpha := 1.0
				if d > 0.7 {
					alpha = (1 - d) / 0.3
				}
				tex := float64(texAmp * 0.8 * (fbm2D(o.texSeed, ex*4, ey*4) - 0.5))
				v := o.level + tex
				idx := py*w + px
				out.Pix[idx] = float32(float64(float64(out.Pix[idx])*(1-alpha)) + float64(v*alpha))
			}
		}
	}

	if g.Cat.Noise > 0 {
		nSeed := splitmix64(g.Seed ^ uint64(t)*0x6c8e)
		amp := float32(g.Cat.Noise)
		for i := range out.Pix {
			u1 := hashUnit(nSeed, uint64(i))
			u2 := hashUnit(nSeed, uint64(i)^0xffff0000)
			out.Pix[i] += float32(float32(amp*float32(u1+u2-1)) * 2)
		}
	}
	return out.Clamp255()
}

// entranceFrame returns a frame of segment 0 in which a spawned object is
// sliding in and its bounding box straddles the frame edge.
func entranceFrame(t *testing.T, g *Generator) int {
	objs := g.objects(0)
	for i := range objs {
		o := &objs[i]
		if o.birth == 0 || (g.Cat.CutEvery > 0 && o.birth+FPS >= g.Cat.CutEvery) {
			continue
		}
		for off := o.birth + 1; off < o.birth+FPS; off++ {
			x, y := o.pos(off)
			l, r := x-o.rx*1.3, x+o.rx*1.3
			b, e := y-o.ry*1.3, y+o.ry*1.3
			inside := r > 0 && l < 1 && e > 0 && b < 1
			if inside && (l < 0 || r > 1 || b < 0 || e > 1) {
				return off
			}
		}
	}
	t.Fatalf("%s: no spawned object clipped mid-entrance", g.Cat.Name)
	return 0
}

// TestRenderMatchesRef demands bit-identical frames from Render and the
// per-pixel oracle: every category, the benchmark's two sizes and an odd
// one, across a scene cut and an edge entrance, and far from the lattice
// origin.
func TestRenderMatchesRef(t *testing.T) {
	sizes := [][2]int{{320, 180}, {960, 540}, {97, 53}}
	check := func(t *testing.T, g *Generator, f, w, h int) {
		got, want := g.Render(f, w, h), g.renderRef(f, w, h)
		for i := range want.Pix {
			if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("%s t=%d %dx%d: pixel (%d,%d) = %v, oracle %v",
					g.Cat.Name, f, w, h, i%w, i/w, got.Pix[i], want.Pix[i])
			}
		}
	}
	for ci, cat := range Categories() {
		g := NewGenerator(cat, int64(ci+1))
		frames := []int{0, 1, cat.CutEvery - 1, cat.CutEvery, cat.CutEvery + 1, entranceFrame(t, g)}
		t.Run(cat.Name, func(t *testing.T) {
			t.Parallel()
			for _, s := range sizes {
				for _, f := range frames {
					check(t, g, f, s[0], s[1])
				}
			}
		})
	}
	noCuts := Category{Name: "NoCuts", Objects: 3, Speed: 0.9, Texture: 0.7, SpawnRate: 0.5, Noise: 1}
	g := NewGenerator(noCuts, 11)
	for _, f := range []int{9999, 10000, 10001} {
		t.Run(fmt.Sprintf("NoCuts/t=%d", f), func(t *testing.T) {
			t.Parallel()
			check(t, g, f, 320, 180)
			check(t, g, f, 97, 53)
		})
	}
}

// renderSink keeps the benchmarked renders from being optimised away.
var renderSink *vmath.Plane

func benchRender(b *testing.B, w, h int) {
	g := NewGenerator(Categories()[3], 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		renderSink = g.Render(i, w, h)
	}
}

// BenchmarkRender180p is the origin-live source size.
func BenchmarkRender180p(b *testing.B) { benchRender(b, 320, 180) }

func BenchmarkRender270p(b *testing.B) { benchRender(b, 480, 270) }

// BenchmarkRender540p is the play workloads' source size.
func BenchmarkRender540p(b *testing.B) { benchRender(b, 960, 540) }
