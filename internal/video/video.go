// Package video provides the video substrate for NERVE: frames, clips, the
// adaptive-streaming resolution/bitrate ladder, and a deterministic
// procedural scene generator that stands in for the paper's YouTube/NEMO
// dataset (see DESIGN.md §1 for the substitution rationale).
//
// The generator is analytic: frame t of a given (category, seed) pair is a
// pure function of its arguments, so any frame can be rendered at any
// resolution without sequential state. That keeps every experiment
// reproducible and lets ground truth be produced at 1080p while the codec
// operates on downscaled ladder rungs.
package video

import (
	"fmt"
	"math"

	"nerve/internal/par"
	"nerve/internal/vmath"
)

// FPS is the frame rate used throughout the system (the paper streams and
// enhances at 30 FPS).
const FPS = 30

// FrameInterval is the playout interval between frames in seconds.
const FrameInterval = 1.0 / FPS

// Resolution identifies a rung of the bitrate ladder.
type Resolution int

// The ladder follows Wowza's recommendation used in the paper §8.1:
// {512, 1024, 1600, 2640, 4400} kbps at {240, 360, 480, 720, 1080}p.
const (
	R240 Resolution = iota
	R360
	R480
	R720
	R1080
	numResolutions
)

// ladder holds the per-rung geometry and target bitrate.
var ladder = [numResolutions]struct {
	name string
	w, h int
	kbps int
}{
	R240:  {"240p", 426, 240, 512},
	R360:  {"360p", 640, 360, 1024},
	R480:  {"480p", 854, 480, 1600},
	R720:  {"720p", 1280, 720, 2640},
	R1080: {"1080p", 1920, 1080, 4400},
}

// Resolutions returns every ladder rung from lowest to highest.
func Resolutions() []Resolution {
	return []Resolution{R240, R360, R480, R720, R1080}
}

// String returns the conventional name, e.g. "720p".
func (r Resolution) String() string { return ladder[r].name }

// Dims returns the pixel dimensions of the rung.
func (r Resolution) Dims() (w, h int) { return ladder[r].w, ladder[r].h }

// Kbps returns the ladder target bitrate in kilobits per second.
func (r Resolution) Kbps() int { return ladder[r].kbps }

// Bitrate returns the ladder target bitrate in bits per second.
func (r Resolution) Bitrate() float64 { return float64(ladder[r].kbps) * 1000 }

// Index returns the ladder index (0 = lowest).
func (r Resolution) Index() int { return int(r) }

// Category describes one of the ten synthetic content categories that stand
// in for the paper's "top ten popular YouTube categories". Each category has
// a distinct motion/texture/new-content profile.
type Category struct {
	Name string
	// Objects is the number of simultaneously visible moving objects.
	Objects int
	// Speed scales object and camera motion (fraction of frame width per
	// second at Speed = 1).
	Speed float64
	// Texture in [0,1] controls how much high-frequency texture objects
	// and background carry.
	Texture float64
	// CutEvery is the scene-cut period in frames (new scene = all-new
	// content, the hardest case for prediction). Zero disables cuts.
	CutEvery int
	// SpawnRate is the expected number of new objects entering the scene
	// per second (new content that only the binary point code can hint).
	SpawnRate float64
	// Noise is the per-pixel sensor-noise sigma.
	Noise float64
}

// Categories returns the ten content categories. The parameters were chosen
// so that the corpus spans slow/static content (How-to, Education) through
// fast, cut-heavy content (Game play, Challenges), mirroring the diversity
// of the paper's dataset.
func Categories() []Category {
	return []Category{
		{Name: "ProductReview", Objects: 3, Speed: 0.25, Texture: 0.5, CutEvery: 240, SpawnRate: 0.2, Noise: 1.0},
		{Name: "HowTo", Objects: 2, Speed: 0.15, Texture: 0.4, CutEvery: 360, SpawnRate: 0.1, Noise: 0.8},
		{Name: "Vlogs", Objects: 4, Speed: 0.45, Texture: 0.6, CutEvery: 180, SpawnRate: 0.4, Noise: 1.2},
		{Name: "GamePlay", Objects: 7, Speed: 0.9, Texture: 0.8, CutEvery: 150, SpawnRate: 1.0, Noise: 0.6},
		{Name: "Skit", Objects: 4, Speed: 0.5, Texture: 0.55, CutEvery: 120, SpawnRate: 0.5, Noise: 1.0},
		{Name: "Haul", Objects: 3, Speed: 0.3, Texture: 0.65, CutEvery: 300, SpawnRate: 0.3, Noise: 1.0},
		{Name: "Challenges", Objects: 6, Speed: 0.8, Texture: 0.7, CutEvery: 140, SpawnRate: 0.8, Noise: 1.1},
		{Name: "Favorite", Objects: 3, Speed: 0.35, Texture: 0.5, CutEvery: 260, SpawnRate: 0.25, Noise: 0.9},
		{Name: "Education", Objects: 2, Speed: 0.2, Texture: 0.35, CutEvery: 400, SpawnRate: 0.15, Noise: 0.7},
		{Name: "Unboxing", Objects: 3, Speed: 0.4, Texture: 0.6, CutEvery: 220, SpawnRate: 0.35, Noise: 1.0},
	}
}

// CategoryByName looks a category up by name.
func CategoryByName(name string) (Category, error) {
	for _, c := range Categories() {
		if c.Name == name {
			return c, nil
		}
	}
	return Category{}, fmt.Errorf("video: unknown category %q", name)
}

// splitmix64 is a tiny, high-quality hash used to derive all per-scene
// pseudo-randomness analytically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashInit is the state hashUnit's chain starts from.
const hashInit = 0x243f6a8885a308d3

// hashUnit maps an arbitrary key sequence to a float64 in [0,1).
func hashUnit(keys ...uint64) float64 {
	var h uint64 = hashInit
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return unitFloat(h)
}

// unitFloat maps the top 53 bits of a hash to a float64 in [0,1). The
// compiler turns the division into a multiply by 2⁻⁵³; the conversion keeps
// that multiply from fusing with the add the result feeds.
func unitFloat(h uint64) float64 { return float64(float64(h>>11) / float64(1<<53)) }

// Rounding rule for this file (DESIGN.md §10): every product that feeds an
// add or subtract is wrapped in an explicit float64(...) conversion, so no
// platform may fuse the pair into one multiply-add and skip the product's
// rounding. Frames are then the same bits on every platform.

// fade is the smoothstep weight of a lattice-cell fraction f, for C1
// continuity of the value noise.
func fade(f float64) float64 { return f * f * (3 - float64(2*f)) }

// lerp returns a + s·(b−a).
func lerp(a, b, s float64) float64 { return a + float64(s*(b-a)) }

// cell splits a noise coordinate into its lattice cell and smoothstep
// weight.
func cell(x float64) (i int64, s float64) {
	f := math.Floor(x)
	return int64(f), fade(x - f)
}

// The scene's texture is two-octave fractal value noise: octave 1 at the
// given coordinates with the texture seed, octave 2 at 2.7× them with the
// seed XOR fbmSeed2, mixed 0.65 : 0.35. Each octave interpolates hashUnit
// values of (seed, ix, iy) at the integer lattice points around the sample.
const (
	fbmSeed2 = 0xabcdef
	fbmFreq2 = 2.7
)

// fbmMix mixes the two octaves' noise values.
func fbmMix(n1, n2 float64) float64 { return float64(n1*0.65) + float64(n2*0.35) }

// lattice holds hashUnit(seed, ix, iy) for the integer points
// x0 ≤ ix < x0+nx, y0 ≤ iy < y0+ny, row by row. A frame samples each
// octave's lattice at a few hundred points but samples each point for
// hundreds of pixels, so Render hashes the points once per call into
// lattices and interpolates from them.
type lattice struct {
	seed   uint64
	x0, y0 int64
	nx, ny int
	v      []float64
}

// fill hashes the points of the nx×ny rectangle at (x0, y0) for seed,
// reusing l's storage.
func (l *lattice) fill(seed uint64, x0, y0 int64, nx, ny int) {
	l.seed, l.x0, l.y0, l.nx, l.ny = seed, x0, y0, nx, ny
	if cap(l.v) < nx*ny {
		l.v = make([]float64, nx*ny)
	}
	l.v = l.v[:nx*ny]
	// The hash chain's first two rounds depend only on seed and ix.
	hs := splitmix64(hashInit ^ seed)
	for i := 0; i < nx; i++ {
		hx := splitmix64(hs ^ uint64(x0+int64(i)))
		for j := 0; j < ny; j++ {
			l.v[j*nx+i] = unitFloat(splitmix64(hx ^ uint64(y0+int64(j))))
		}
	}
}

// at returns hashUnit(l.seed, ix, iy), from the table when the point is in
// it.
func (l *lattice) at(ix, iy int64) float64 {
	i, j := ix-l.x0, iy-l.y0
	if i >= 0 && i < int64(l.nx) && j >= 0 && j < int64(l.ny) {
		return l.v[int(j)*l.nx+int(i)]
	}
	return hashUnit(l.seed, uint64(ix), uint64(iy))
}

// noise returns the value noise of l's seed at (x, y), in [0,1]. Points
// outside the table are hashed, so the result never depends on the table's
// bounds.
func (l *lattice) noise(x, y float64) float64 {
	ix, sx := cell(x)
	iy, sy := cell(y)
	var v00, v10, v01, v11 float64
	if i, j := ix-l.x0, iy-l.y0; i >= 0 && i < int64(l.nx-1) && j >= 0 && j < int64(l.ny-1) {
		k := int(j)*l.nx + int(i)
		v00, v10, v01, v11 = l.v[k], l.v[k+1], l.v[k+l.nx], l.v[k+l.nx+1]
	} else {
		v00, v10 = l.at(ix, iy), l.at(ix+1, iy)
		v01, v11 = l.at(ix, iy+1), l.at(ix+1, iy+1)
	}
	return lerp(lerp(v00, v10, sx), lerp(v01, v11, sx), sy)
}

// Generator renders the synthetic scene for one (category, seed) pair.
// It is safe for concurrent use; all methods are pure functions of their
// arguments.
type Generator struct {
	Cat  Category
	Seed uint64
}

// NewGenerator returns a generator for the category and seed.
func NewGenerator(cat Category, seed int64) *Generator {
	return &Generator{Cat: cat, Seed: splitmix64(uint64(seed) ^ 0x5eed)}
}

// segment returns the scene-cut segment containing frame t and the frame
// offset within it.
func (g *Generator) segment(t int) (seg, off int) {
	if g.Cat.CutEvery <= 0 {
		return 0, t
	}
	return t / g.Cat.CutEvery, t % g.Cat.CutEvery
}

// object holds the analytic parameters of one moving object within a
// segment. Positions are in normalised [0,1]² scene coordinates.
type object struct {
	cx, cy   float64 // path centre
	ax, ay   float64 // path amplitudes
	px, py   float64 // path phase
	wx, wy   float64 // path angular velocities (rad/s)
	rx, ry   float64 // ellipse radii
	angle    float64 // rotation of the ellipse
	level    float64 // base intensity
	texSeed  uint64
	birth    int // frame offset within segment when the object appears
	entrance int // 0..3 edge it slides in from
}

// objects derives the object set of a segment. The first Cat.Objects
// objects exist from the segment start; additional objects spawn over the
// segment at SpawnRate per second, entering from an edge (the "new content"
// the recovery model must inpaint).
func (g *Generator) objects(seg int) []object {
	segKey := splitmix64(g.Seed ^ uint64(seg)*0x9e37)
	segLen := g.Cat.CutEvery
	if segLen <= 0 {
		segLen = 100000
	}
	spawned := int(g.Cat.SpawnRate * float64(segLen) / FPS)
	n := g.Cat.Objects + spawned
	objs := make([]object, n)
	for i := range objs {
		k := splitmix64(segKey ^ uint64(i)*0x85eb)
		u := func(j uint64) float64 { return hashUnit(k, j) }
		o := &objs[i]
		o.cx = 0.15 + float64(0.7*u(1))
		o.cy = 0.15 + float64(0.7*u(2))
		o.ax = 0.05 + float64(0.25*u(3))
		o.ay = 0.05 + float64(0.25*u(4))
		o.px = 2 * math.Pi * u(5)
		o.py = 2 * math.Pi * u(6)
		speed := g.Cat.Speed * (0.5 + u(7))
		// The compiler turns ×2 into an add, so the product before it is
		// rounded explicitly too.
		o.wx = float64(speed*(0.6+float64(0.8*u(8)))) * 2 * math.Pi / 4 // rad/s
		o.wy = float64(speed*(0.6+float64(0.8*u(9)))) * 2 * math.Pi / 4
		o.rx = 0.05 + float64(0.12*u(10))
		o.ry = 0.05 + float64(0.12*u(11))
		o.angle = math.Pi * u(12)
		o.level = 40 + float64(190*u(13))
		o.texSeed = splitmix64(k ^ 0xfeed)
		if i >= g.Cat.Objects {
			// Staggered spawn across the segment.
			frac := float64(i-g.Cat.Objects+1) / float64(spawned+1)
			o.birth = int(frac * float64(segLen))
			o.entrance = int(u(14) * 4)
		}
	}
	return objs
}

// pos returns the object centre at segment offset off (frames), handling
// edge entrances for spawned objects.
func (o *object) pos(off int) (x, y float64) {
	ts := float64(off) / FPS
	x = o.cx + float64(o.ax*math.Sin(float64(o.wx*ts)+o.px))
	y = o.cy + float64(o.ay*math.Sin(float64(o.wy*ts)+o.py))
	if o.birth > 0 {
		// Slide in from the entrance edge over ~1 second.
		prog := float64(off-o.birth) / FPS
		if prog < 0 {
			prog = 0
		}
		slide := 1 - math.Min(prog, 1) // 1 → fully outside, 0 → on path
		switch o.entrance {
		case 0:
			x -= float64(slide * (x + 0.2))
		case 1:
			x += float64(slide * (1.2 - x))
		case 2:
			y -= float64(slide * (y + 0.2))
		default:
			y += float64(slide * (1.2 - y))
		}
	}
	return x, y
}

// bgAxis is one pixel column's (or row's) share of the background: its
// lattice cell (as an offset into the frame's lattice table once Render
// has sized the tables) and smoothstep weight on each octave, and its term
// of the intensity gradient.
type bgAxis struct {
	i1, i2 int64
	s1, s2 float64
	ramp   float64
}

// newBgAxis places normalised coordinate n, panned by pan, on the
// background's octave lattices.
func newBgAxis(n, pan, ramp float64) bgAxis {
	x := float64(n*6) + pan
	i1, s1 := cell(x)
	i2, s2 := cell(float64(x * fbmFreq2))
	return bgAxis{i1: i1, i2: i2, s1: s1, s2: s2, ramp: ramp}
}

// Object texture coordinates are 4·(ex, ey) in the ellipse frame, where
// ex² + ey² < 1 inside the ellipse: octave 1 samples cells in [-4, 4) and
// octave 2 cells in [-10.8, 10.8), so these tables cover every lattice
// point an object's texture reads.
const (
	objLat1 = 4
	objLat2 = 11
)

// Render draws frame t at w×h pixels into a new plane. The result is
// deterministic in (category, seed, t, w, h) and consistent across
// resolutions: a frame rendered at 480×270 is (up to sampling) the
// downscale of the same frame at 1920×1080.
func (g *Generator) Render(t, w, h int) *vmath.Plane {
	return g.RenderInto(vmath.NewPlane(w, h), t)
}

// sprite is one visible object's state in one frame: its centre, its pixel
// box clipped to the frame, its rotation and its texture lattices.
type sprite struct {
	o              *object
	ox, oy         float64
	x0, y0, x1, y1 int
	cosA, sinA     float64
	tex1, tex2     lattice
}

// place returns the sprites of the objects of objs visible at segment
// offset off in a w×h frame, in index order.
func place(objs []object, off, w, h int) []sprite {
	sprites := make([]sprite, 0, len(objs))
	for i := range objs {
		o := &objs[i]
		if off < o.birth {
			continue
		}
		ox, oy := o.pos(off)
		// Bounding box in pixels (inflate a little for the soft edge).
		x0 := int((ox - float64(o.rx*1.3)) * float64(w))
		x1 := int((ox + float64(o.rx*1.3)) * float64(w))
		y0 := int((oy - float64(o.ry*1.3)) * float64(h))
		y1 := int((oy + float64(o.ry*1.3)) * float64(h))
		if x1 < 0 || y1 < 0 || x0 >= w || y0 >= h {
			continue
		}
		s := sprite{o: o, ox: ox, oy: oy,
			x0: max(x0, 0), y0: max(y0, 0), x1: min(x1, w-1), y1: min(y1, h-1),
			cosA: math.Cos(o.angle), sinA: math.Sin(o.angle)}
		s.tex1.fill(o.texSeed, -objLat1, -objLat1, 2*objLat1+1, 2*objLat1+1)
		s.tex2.fill(o.texSeed^fbmSeed2, -objLat2, -objLat2, 2*objLat2+1, 2*objLat2+1)
		sprites = append(sprites, s)
	}
	return sprites
}

// paint blends the sprite over rows y0..y1 (inclusive) of its box in out.
func (s *sprite) paint(out *vmath.Plane, y0, y1 int, texScale float64) {
	w, h := out.W, out.H
	o, ox, oy, cosA, sinA := s.o, s.ox, s.oy, s.cosA, s.sinA
	for py := y0; py <= y1; py++ {
		ny := float64(py)/float64(h) - oy
		nySin, nyCos := float64(ny*sinA), float64(ny*cosA)
		for px := s.x0; px <= s.x1; px++ {
			nx := float64(px)/float64(w) - ox
			// Rotate into the ellipse frame.
			ex := (float64(nx*cosA) + nySin) / o.rx
			ey := (float64(-nx*sinA) + nyCos) / o.ry
			d := float64(ex*ex) + float64(ey*ey)
			if d >= 1 {
				continue
			}
			// Soft edge over the outer 15% of the radius.
			alpha := 1.0
			if d > 0.7 {
				alpha = (1 - d) / 0.3
			}
			tx, ty := float64(ex*4), float64(ey*4)
			n := fbmMix(s.tex1.noise(tx, ty), s.tex2.noise(float64(tx*fbmFreq2), float64(ty*fbmFreq2)))
			v := o.level + float64(texScale*(n-0.5))
			idx := py*w + px
			out.Pix[idx] = float32(float64(float64(out.Pix[idx])*(1-alpha)) + float64(v*alpha))
		}
	}
}

// RenderInto draws frame t into out at out's size and returns out. Every
// sample is overwritten, so out may be a dirty pooled plane; the result is
// bit-identical to Render(t, out.W, out.H).
//
// The frame-wide state is set up serially: the background's axes and
// lattices, and each visible object's placement and texture lattices. One
// par.ForRows pass then takes each band of rows through every stage in
// turn: background, objects in index order, sensor noise, clamp. A pixel
// sees the same float operations in the same order as when each stage
// covers the whole frame before the next, and band boundaries depend only
// on h, so the frame is the same bits for any pool size.
func (g *Generator) RenderInto(out *vmath.Plane, t int) *vmath.Plane {
	w, h := out.W, out.H
	if len(out.Pix) == 0 {
		return out
	}
	seg, off := g.segment(t)
	segKey := splitmix64(g.Seed ^ uint64(seg)*0x9e37)
	objs := g.objects(seg)

	// Camera pan: slow global translation of the background field.
	panX := g.Cat.Speed * 0.08 * float64(off) / FPS
	panY := g.Cat.Speed * 0.03 * float64(off) / FPS

	bgSeed := splitmix64(segKey ^ 0xbac)
	texAmp := 60 * g.Cat.Texture

	// Background: smooth gradient plus panning fbm texture. The texture
	// coordinate of a pixel is separable, so each column and row is placed
	// on the two octave lattices once, and the lattice points the pan
	// window covers are hashed once into a table per octave. Coordinates
	// grow with px and py, so the first and last column (row) bound the
	// cells.
	cols := make([]bgAxis, w)
	for px := range cols {
		nx := float64(px) / float64(w)
		cols[px] = newBgAxis(nx, panX, 70+float64(60*nx))
	}
	rows := make([]bgAxis, h)
	for py := range rows {
		ny := float64(py) / float64(h)
		rows[py] = newBgAxis(ny, panY, float64(30*ny))
	}
	var bg1, bg2 lattice
	c0, c1, r0, r1 := cols[0], cols[w-1], rows[0], rows[h-1]
	bg1.fill(bgSeed, c0.i1, r0.i1, int(c1.i1-c0.i1)+2, int(r1.i1-r0.i1)+2)
	bg2.fill(bgSeed^fbmSeed2, c0.i2, r0.i2, int(c1.i2-c0.i2)+2, int(r1.i2-r0.i2)+2)
	for px := range cols {
		cols[px].i1 -= bg1.x0
		cols[px].i2 -= bg2.x0
	}

	// Objects are painted back-to-front in index order.
	sprites := place(objs, off, w, h)
	texScale := texAmp * 0.8

	// Sensor noise: deterministic per (seed, t, pixel), two hashUnit(nSeed,
	// key) draws per pixel with the seed's round of the chain done once.
	noisy := g.Cat.Noise > 0
	nSeed := splitmix64(g.Seed ^ uint64(t)*0x6c8e)
	hs := splitmix64(hashInit ^ nSeed)
	amp := float32(g.Cat.Noise)

	par.ForRows(h, func(y0, y1 int) {
		// Background.
		for py := y0; py < y1; py++ {
			r := rows[py]
			a1 := bg1.v[int(r.i1-bg1.y0)*bg1.nx:]
			b1 := a1[bg1.nx:]
			a2 := bg2.v[int(r.i2-bg2.y0)*bg2.nx:]
			b2 := a2[bg2.nx:]
			line := out.Pix[py*w : (py+1)*w]
			for px, c := range cols {
				i, j := int(c.i1), int(c.i2)
				n1 := lerp(lerp(a1[i], a1[i+1], c.s1), lerp(b1[i], b1[i+1], c.s1), r.s1)
				n2 := lerp(lerp(a2[j], a2[j+1], c.s2), lerp(b2[j], b2[j+1], c.s2), r.s2)
				v := c.ramp + r.ramp
				v += float64(texAmp * (fbmMix(n1, n2) - 0.5))
				line[px] = float32(v)
			}
		}
		// Objects, clipped to the band.
		for i := range sprites {
			s := &sprites[i]
			s.paint(out, max(s.y0, y0), min(s.y1, y1-1), texScale)
		}
		// Sensor noise, keyed by the flat pixel index.
		if noisy {
			for i := y0 * w; i < y1*w; i++ {
				// Approximate Gaussian via sum of two uniforms.
				u1 := unitFloat(splitmix64(hs ^ uint64(i)))
				u2 := unitFloat(splitmix64(hs ^ uint64(i) ^ 0xffff0000))
				out.Pix[i] += float32(float32(amp*float32(u1+u2-1)) * 2)
			}
		}
		// Clamp to [0, 255] as Plane.Clamp255 does.
		band := out.Pix[y0*w : y1*w]
		for i, v := range band {
			if v < 0 {
				band[i] = 0
			} else if v > 255 {
				band[i] = 255
			}
		}
	})
	return out
}

// ClipSource identifies one dataset clip: a category plus a creator seed.
type ClipSource struct {
	Cat  Category
	Seed int64
}

// Generator returns the clip's frame generator.
func (s ClipSource) Generator() *Generator { return NewGenerator(s.Cat, s.Seed) }

// Dataset mirrors the paper's split: five clips per category from distinct
// "creators" (seeds), four for training and one for testing.
type Dataset struct {
	Train []ClipSource
	Test  []ClipSource
}

// NewDataset builds the 10-category × 5-seed corpus.
func NewDataset() *Dataset {
	d := &Dataset{}
	for ci, cat := range Categories() {
		for s := 0; s < 5; s++ {
			src := ClipSource{Cat: cat, Seed: int64(ci*100 + s + 1)}
			if s < 4 {
				d.Train = append(d.Train, src)
			} else {
				d.Test = append(d.Test, src)
			}
		}
	}
	return d
}
