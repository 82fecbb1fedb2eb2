package sr

import (
	"math/rand"
	"testing"

	"nerve/internal/vmath"
)

func randomByteLR(w, h int, seed int64) *vmath.BytePlane {
	rng := rand.New(rand.NewSource(seed))
	coarse := vmath.NewBytePlane(w/6+2, h/6+2)
	for i := range coarse.Pix {
		coarse.Pix[i] = uint8(rng.Intn(256))
	}
	p := vmath.NewBytePlane(w, h)
	vmath.ResizeBilinearBytesInto(p, coarse)
	// Re-inject some high-frequency texture so the sharpen has work to do.
	for i := range p.Pix {
		v := int(p.Pix[i]) + rng.Intn(21) - 10
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		p.Pix[i] = uint8(v)
	}
	return p
}

// TestFastUpscaleResizeStageWithinOneLSB isolates the head's resize stage:
// the head's output must be within 1 LSB of the float bilinear resize of
// the head's own sharpened intermediate (the sharpen stage carries its own
// ≤1 LSB proof in vmath). Reaching into the intermediate keeps the bound
// crisp instead of compounding two stage tolerances.
func TestFastUpscaleResizeStageWithinOneLSB(t *testing.T) {
	const lrW, lrH, outW, outH = 120, 68, 240, 136
	lr := randomByteLR(lrW, lrH, 1)
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := vmath.NewBytePlane(outW, outH)
	fu.UpscaleBytesInto(out, lr)

	// Rebuild the sharpened intermediate exactly as the head does.
	sharp := vmath.NewBytePlane(lrW, lrH)
	vmath.SharpenBytesInto(sharp, lr, fu.boost256(lrW))
	sharpF := sharp.ToPlane(vmath.NewPlane(lrW, lrH))
	refF := vmath.NewPlane(outW, outH)
	vmath.ResizeBilinearInto(refF, sharpF)
	for i := range out.Pix {
		want := vmath.PixelByte(refF.Pix[i])
		d := int(out.Pix[i]) - int(want)
		if d < 0 {
			d = -d
		}
		if d > 1 {
			t.Fatalf("pixel %d: fast head %d vs float resize of intermediate %d (Δ%d > 1)",
				i, out.Pix[i], want, d)
		}
	}
}

// TestFastUpscaleTracksFloatComposite checks the whole head against the
// fully-float composite (float sharpen with the same [1 2 1]/4 binomial
// blur and Q8-rounded amount, byte-quantised between stages, float bilinear
// resize). Each stage contributes ≤1 LSB and the resize is a convex
// combination, so the chained bound is 3 LSB.
func TestFastUpscaleTracksFloatComposite(t *testing.T) {
	const lrW, lrH, outW, outH = 96, 54, 192, 108
	lr := randomByteLR(lrW, lrH, 2)
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := vmath.NewBytePlane(outW, outH)
	fu.UpscaleBytesInto(out, lr)

	lrF := lr.ToPlane(vmath.NewPlane(lrW, lrH))
	blur := vmath.NewPlane(lrW, lrH)
	vmath.ConvolveSeparableInto(blur, lrF, []float32{0.25, 0.5, 0.25}, []float32{0.25, 0.5, 0.25})
	amount := float32(fu.boost256(lrW)) / 256
	sharpQ := vmath.NewBytePlane(lrW, lrH)
	for i := range sharpQ.Pix {
		sharpQ.Pix[i] = vmath.PixelByte(lrF.Pix[i] + amount*(lrF.Pix[i]-blur.Pix[i]))
	}
	refF := vmath.NewPlane(outW, outH)
	vmath.ResizeBilinearInto(refF, sharpQ.ToPlane(vmath.NewPlane(lrW, lrH)))
	var worst int
	for i := range out.Pix {
		d := int(out.Pix[i]) - int(vmath.PixelByte(refF.Pix[i]))
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 3 {
		t.Fatalf("fast head deviates %d LSB from float composite (want ≤ 3)", worst)
	}
}

// TestFastUpscaleSameGeometryIsSharpenOnly: when LR already matches the
// output geometry the head must not resample.
func TestFastUpscaleSameGeometryIsSharpenOnly(t *testing.T) {
	const w, h = 64, 48
	lr := randomByteLR(w, h, 3)
	fu := NewFast(Config{OutW: w, OutH: h, DetailBoost: 0.2})
	out := vmath.NewBytePlane(w, h)
	fu.UpscaleBytesInto(out, lr)
	want := vmath.NewBytePlane(w, h)
	vmath.SharpenBytesInto(want, lr, fu.boost256(w))
	for i := range out.Pix {
		if out.Pix[i] != want.Pix[i] {
			t.Fatalf("pixel %d: same-geometry head %d != sharpen %d", i, out.Pix[i], want.Pix[i])
		}
	}
}

// TestFastUpscaleZeroPlaneAllocsWarm: after the first call the 2× head
// must allocate nothing. Its only scratch is the row cache it owns, so no
// pool round trip is involved and the check holds under -race too.
func TestFastUpscaleZeroPlaneAllocsWarm(t *testing.T) {
	const lrW, lrH, outW, outH = 160, 90, 320, 180
	lr := randomByteLR(lrW, lrH, 4)
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := vmath.GetBytes(outW, outH)
	defer vmath.PutBytes(out)
	for i := 0; i < 3; i++ {
		fu.UpscaleBytesInto(out, lr) // warm pools
	}
	before := vmath.PlaneAllocs()
	for i := 0; i < 10; i++ {
		fu.UpscaleBytesInto(out, lr)
	}
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("warm fast head allocated %d planes over 10 frames, want 0", d)
	}
	fu.Reset()
}

func BenchmarkFastUpscale1080p(b *testing.B) {
	const lrW, lrH, outW, outH = 960, 540, 1920, 1080
	lr := randomByteLR(lrW, lrH, 5)
	fu := NewFast(Config{OutW: outW, OutH: outH})
	out := vmath.GetBytes(outW, outH)
	defer vmath.PutBytes(out)
	fu.UpscaleBytesInto(out, lr)
	b.SetBytes(int64(outW * outH))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fu.UpscaleBytesInto(out, lr)
	}
}
