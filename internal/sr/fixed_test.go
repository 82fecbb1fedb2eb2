package sr

import (
	"math/rand"
	"testing"

	"nerve/internal/vmath"
)

// randomLR is a w×h float plane of smooth byte-valued content with
// high-frequency texture on top.
func randomLR(w, h int, seed int64) *vmath.Plane {
	rng := rand.New(rand.NewSource(seed))
	coarse := vmath.NewBytePlane(w/6+2, h/6+2)
	for i := range coarse.Pix {
		coarse.Pix[i] = uint8(rng.Intn(256))
	}
	p := vmath.NewBytePlane(w, h)
	vmath.ResizeBilinearBytesInto(p, coarse)
	for i := range p.Pix {
		v := int(p.Pix[i]) + rng.Intn(21) - 10
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		p.Pix[i] = uint8(v)
	}
	return p.ToPlane(vmath.NewPlane(w, h))
}

// byteResize is the head's oracle: the byte bilinear resize of lr's byte
// shadow, widened back to float.
func byteResize(lr *vmath.Plane, outW, outH int) *vmath.Plane {
	lrB := vmath.NewBytePlane(lr.W, lr.H).FromPlane(lr)
	outB := vmath.ResizeBilinearBytesInto(vmath.NewBytePlane(outW, outH), lrB)
	return outB.ToPlane(vmath.NewPlane(outW, outH))
}

// dirtyPlane is a w×h plane of non-zero values, standing in for a
// destination that comes dirty from the pool.
func dirtyPlane(w, h int) *vmath.Plane {
	p := vmath.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = float32(i%301) - 20.5
	}
	return p
}

// maxLSB is the largest |PixelByte(ref) − got| over the two planes.
func maxLSB(t *testing.T, got, ref *vmath.Plane) int {
	t.Helper()
	var worst int
	for i := range got.Pix {
		d := int(got.Pix[i]) - int(vmath.PixelByte(ref.Pix[i]))
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestFastUpscaleResizeStageWithinOneLSB: with no sharpen in front, the
// resize stage is the whole head, so on byte-valued input the head must be
// within 1 LSB of the float bilinear resize of that input, at 2× and at a
// generic ratio.
func TestFastUpscaleResizeStageWithinOneLSB(t *testing.T) {
	for _, c := range []struct{ lrW, lrH, outW, outH int }{
		{120, 68, 240, 136}, {96, 54, 240, 135},
	} {
		lr := randomLR(c.lrW, c.lrH, 1)
		fu := NewFast(Config{OutW: c.outW, OutH: c.outH})
		out := fu.UpscaleInto(dirtyPlane(c.outW, c.outH), lr)
		ref := vmath.ResizeBilinearInto(vmath.NewPlane(c.outW, c.outH), lr)
		if d := maxLSB(t, out, ref); d > 1 {
			t.Fatalf("%dx%d→%dx%d: fast head deviates %d LSB from the float resize (want ≤ 1)",
				c.lrW, c.lrH, c.outW, c.outH, d)
		}
	}
}

// TestFastUpscaleTracksFloatComposite checks the head against the fully
// float path on input that is not byte-valued, as float recovery hands it
// over: the float bilinear resize of the raw plane. Quantising the input
// moves each LR pixel by ≤ ½ LSB, which the convex resize carries through,
// and the resize rounds once more, so the chained bound is 2 LSB.
func TestFastUpscaleTracksFloatComposite(t *testing.T) {
	const lrW, lrH, outW, outH = 96, 54, 192, 108
	lr := randomLR(lrW, lrH, 2)
	rng := rand.New(rand.NewSource(2))
	for i := range lr.Pix {
		lr.Pix[i] += rng.Float32() - 0.5
	}
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := fu.UpscaleInto(dirtyPlane(outW, outH), lr)
	ref := vmath.ResizeBilinearInto(vmath.NewPlane(outW, outH), lr)
	if d := maxLSB(t, out, ref); d > 2 {
		t.Fatalf("fast head deviates %d LSB from the float composite (want ≤ 2)", d)
	}
}

// TestFastUpscaleSameGeometryIsSharpenOnly: when LR already matches the
// output geometry the head must not resample. The sharpen that used to be
// the only work left at this geometry is gone, so what remains is the byte
// rounding of lr.
func TestFastUpscaleSameGeometryIsSharpenOnly(t *testing.T) {
	const w, h = 64, 48
	lr := randomLR(w, h, 3)
	for i := range lr.Pix {
		lr.Pix[i] += 0.3
	}
	fu := NewFast(Config{OutW: w, OutH: h})
	out := fu.UpscaleInto(dirtyPlane(w, h), lr)
	for i := range out.Pix {
		if want := float32(vmath.PixelByte(lr.Pix[i])); out.Pix[i] != want {
			t.Fatalf("pixel %d: same-geometry head %v != rounded input %v", i, out.Pix[i], want)
		}
	}
}

// TestFastUpscaleZeroPlaneAllocsWarm: after the first call the 2× head
// must allocate nothing. Its only scratch is the row cache it owns, so no
// pool round trip is involved and the check holds under -race too.
func TestFastUpscaleZeroPlaneAllocsWarm(t *testing.T) {
	const lrW, lrH, outW, outH = 160, 90, 320, 180
	lr := randomLR(lrW, lrH, 4)
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := vmath.Get(outW, outH)
	defer vmath.Put(out)
	for i := 0; i < 3; i++ {
		fu.UpscaleInto(out, lr) // warm pools
	}
	before := vmath.PlaneAllocs()
	for i := 0; i < 10; i++ {
		fu.UpscaleInto(out, lr)
	}
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("warm fast head allocated %d planes over 10 frames, want 0", d)
	}
	fu.Reset()
}

// BenchmarkFastUpscale1080p times the 540p → 1080p call the client's
// fixed tier makes: UpscaleInto on float planes.
func BenchmarkFastUpscale1080p(b *testing.B) {
	const lrW, lrH, outW, outH = 960, 540, 1920, 1080
	lr := randomLR(lrW, lrH, 5)
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := vmath.Get(outW, outH)
	defer vmath.Put(out)
	fu.UpscaleInto(out, lr)
	b.SetBytes(int64(outW * outH))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fu.UpscaleInto(out, lr)
	}
}
