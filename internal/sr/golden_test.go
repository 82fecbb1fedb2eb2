package sr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"nerve/internal/video"
	"nerve/internal/vmath"
)

// goldenFast pins the bytes of FastUpscaler's output on rendered source
// frames at the play geometry and at a small 2× geometry. A faster kernel
// that computes the same arithmetic must leave these digests exactly as
// they are. They were computed when the head's LR sharpen was deleted,
// from the sharpen-free path it already had (a zero amount).
var goldenFast = []struct {
	lrW, lrH, outW, outH int
	seed                 int64
	t                    int
	digest               string
	why                  string
}{
	{960, 540, 1920, 1080, 1, 95, "f7c6a1e401e9aac64860b7ee41cce6d82aa30569a05758d07fe2acdc3552face", "play geometry: 540p rung to the 1080p display"},
	{160, 90, 320, 180, 7, 12, "1903e1a454bc697bbdcacde8a680a356ca30b3d9d6b7132da81a4422a413188f", "small 2× geometry, the zero-alloc test's size"},
}

func byteDigest(p *vmath.BytePlane) string {
	h := sha256.Sum256(p.Pix)
	return hex.EncodeToString(h[:])
}

// TestFastUpscaleGolden upscales each pinned frame and compares digests.
func TestFastUpscaleGolden(t *testing.T) {
	for _, c := range goldenFast {
		g := video.NewGenerator(video.Categories()[3], c.seed)
		out := NewFast(Config{OutW: c.outW, OutH: c.outH}).Upscale(g.Render(c.t, c.lrW, c.lrH))
		if got := byteDigest(vmath.NewBytePlane(c.outW, c.outH).FromPlane(out)); got != c.digest {
			t.Errorf("%dx%d → %dx%d (%s): digest %s, want %s", c.lrW, c.lrH, c.outW, c.outH, c.why, got, c.digest)
		}
	}
}

// goldenFastFloat pins FastUpscaler.Upscale's float output — the path the
// client's fixed tier runs — on rendered frames and on noisy float inputs
// with fractional values outside [0, 255], at the play geometry, small and
// odd 2× geometries and one non-2× ratio. The digests were computed when
// the head's LR sharpen was deleted, from the sharpen-free path it
// already had (a zero amount); the 33×17 row ran that path all along and
// kept its digest.
var goldenFastFloat = []struct {
	lrW, lrH, outW, outH int
	seed                 int64
	t                    int
	noisy                bool
	digest               string
}{
	{960, 540, 1920, 1080, 1, 95, false, "85b515a52520a1fa6d6f7df1511befdaefb0a18ed9a2e1354a047f8da8c97727"},
	{160, 90, 320, 180, 7, 12, false, "e75bb6d0f5a50442c0841215d05fa8d53eb9eaf8cf71db3abe65a9545b1cf4ff"},
	{97, 53, 194, 106, 3, 0, true, "15d2953403cebb9b341417b1762861a2ec3ba16e2f478133ea18c66a55cb9b18"},
	{33, 17, 66, 34, 4, 0, true, "6e6424421c938317ef5f92d58e657767fa3c63de92a41e4188144b09bc6328f3"},
	{160, 90, 240, 135, 7, 12, false, "a94fe356d46ae6df445d424a388c44fdda8d20f3ba91b29e279beac6c7f45b45"},
}

func floatDigest(p *vmath.Plane) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// noisyPlane is a w×h float plane uniform in [−20, 280).
func noisyPlane(w, h int, seed int64) *vmath.Plane {
	rng := rand.New(rand.NewSource(seed))
	p := vmath.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = -20 + 300*rng.Float32()
	}
	return p
}

// TestFastUpscaleFloatGolden upscales each pinned float frame and compares
// digests.
func TestFastUpscaleFloatGolden(t *testing.T) {
	for _, c := range goldenFastFloat {
		lr := noisyPlane(c.lrW, c.lrH, c.seed)
		if !c.noisy {
			lr = video.NewGenerator(video.Categories()[3], c.seed).Render(c.t, c.lrW, c.lrH)
		}
		out := NewFast(Config{OutW: c.outW, OutH: c.outH}).Upscale(lr)
		if got := floatDigest(out); got != c.digest {
			t.Errorf("%dx%d → %dx%d: digest %s, want %s", c.lrW, c.lrH, c.outW, c.outH, got, c.digest)
		}
		vmath.Put(out)
	}
}
