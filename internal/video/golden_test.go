package video

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"nerve/internal/par"
	"nerve/internal/vmath"
)

// goldenRenders pins Render's output on a handful of frames. Any change to
// the scene model, the noise lattice or the order of the floating-point
// operations moves these digests; a change that should leave the frames
// alone (a faster evaluation order of the same arithmetic, a rounding guard
// that emits no instruction on amd64) must leave them exactly as they are.
var goldenRenders = []struct {
	cat     Category
	seed    int64
	t, w, h int
	digest  string
	why     string
}{
	{Categories()[3], 1, 0, 320, 180, "9755ccd8dfe972b14c8432812ff0aca30b458dacfecdcc6433ef8f11338af479", "origin source, segment start"},
	{Categories()[3], 1, 95, 960, 540, "4773ddff598466b2c5376e5228966675805e38d2d8924815ac296fb33b6e08c3", "play source size, spawned object sliding in"},
	{Categories()[1], 7, 3, 160, 96, "52641fffef0820b1cdfb9ef491b59d3f643fc0a1182a614bdc4361c6506e7c24", "the codec's golden clip"},
	{Categories()[2], 7, 181, 97, 53, "a6808335f29ffc607664596d83b04385493e1d74fc6fde5ead88434b0185450e", "odd size, just after a scene cut"},
	{Category{Name: "NoCuts", Objects: 2, Speed: 0.7, Texture: 0.6, SpawnRate: 0.3, Noise: 1}, 3, 10000, 64, 36, "4d36cecfac85b09aa6066c9a1b933f06644f2747e496b066b6c7ba932c344f35", "no cuts, pan far from the lattice origin"},
}

// planeDigest returns the SHA-256 of the plane's samples as little-endian
// float32 bit patterns.
func planeDigest(p *vmath.Plane) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRenderGolden renders each pinned frame and compares its digest.
func TestRenderGolden(t *testing.T) {
	for _, c := range goldenRenders {
		got := planeDigest(NewGenerator(c.cat, c.seed).Render(c.t, c.w, c.h))
		if got != c.digest {
			t.Errorf("%s seed %d t=%d %dx%d (%s): digest %s, want %s", c.cat.Name, c.seed, c.t, c.w, c.h, c.why, got, c.digest)
		}
	}
}

// TestRenderIntoDirtyMatchesRender renders into NaN-filled planes — a
// dirty pooled plane at its worst — and requires Render's output bit for
// bit: RenderInto must overwrite every sample before it reads any.
func TestRenderIntoDirtyMatchesRender(t *testing.T) {
	g := NewGenerator(Categories()[3], 1)
	for _, c := range []struct{ t, w, h int }{{0, 320, 180}, {95, 960, 540}, {7, 1, 1}} {
		dst := vmath.NewPlane(c.w, c.h)
		for i := range dst.Pix {
			dst.Pix[i] = float32(math.NaN())
		}
		if got := g.RenderInto(dst, c.t); got != dst {
			t.Fatalf("%dx%d: RenderInto returned a different plane", c.w, c.h)
		}
		want := g.Render(c.t, c.w, c.h)
		for i, v := range dst.Pix {
			if math.Float32bits(v) != math.Float32bits(want.Pix[i]) {
				t.Fatalf("t=%d %dx%d: sample %d is %v, Render gives %v", c.t, c.w, c.h, i, v, want.Pix[i])
			}
		}
	}
}

// TestRenderPoolSizeIndependent renders into NaN-filled planes at pool
// sizes 1, 2 and 4 and requires Render's output at one worker bit for bit:
// geometries of one row and one band, a short last band (97 rows), and the
// play source size, in a noisy category with a spawned object sliding in
// and, at 161×97, an object whose box straddles a band edge.
func TestRenderPoolSizeIndependent(t *testing.T) {
	g := NewGenerator(Categories()[3], 1)
	const frame = 95
	sizes := []struct{ w, h int }{{1, 1}, {3, 1}, {161, 97}, {960, 540}}

	// par.ForRows cuts bands of 8 rows.
	seg, off := g.segment(frame)
	spawned, straddles := false, false
	for _, s := range place(g.objects(seg), off, 161, 97) {
		spawned = spawned || s.o.birth > 0
		straddles = straddles || s.y0/8 != s.y1/8
	}
	if g.Cat.Noise == 0 || !spawned || !straddles {
		t.Fatalf("frame %d of %s does not cover its cases (noise %v, spawned object %v, box over a band edge %v)",
			frame, g.Cat.Name, g.Cat.Noise, spawned, straddles)
	}

	defer par.SetWorkers(1)()
	want := make([]*vmath.Plane, len(sizes))
	for i, s := range sizes {
		want[i] = g.Render(frame, s.w, s.h)
	}
	for _, n := range []int{1, 2, 4} {
		par.SetWorkers(n)
		for i, s := range sizes {
			dst := vmath.NewPlane(s.w, s.h)
			for j := range dst.Pix {
				dst.Pix[j] = float32(math.NaN())
			}
			g.RenderInto(dst, frame)
			for j, v := range dst.Pix {
				if math.Float32bits(v) != math.Float32bits(want[i].Pix[j]) {
					t.Fatalf("%d workers, %dx%d: sample %d is %v, one worker gives %v", n, s.w, s.h, j, v, want[i].Pix[j])
				}
			}
		}
	}
}
