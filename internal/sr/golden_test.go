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

// goldenFast pins FastUpscaler.UpscaleBytesInto's output on rendered
// source frames at the play geometry and at a small 2× geometry. A faster
// kernel that computes the same arithmetic must leave these digests
// exactly as they are.
var goldenFast = []struct {
	lrW, lrH, outW, outH int
	seed                 int64
	t                    int
	digest               string
	why                  string
}{
	{960, 540, 1920, 1080, 1, 95, "a360d418478608e03b893d94632ceced6adc210a7355190ab78c1be156d43b87", "play geometry: 540p rung to the 1080p display"},
	{160, 90, 320, 180, 7, 12, "55b5436d366000f3462c14a83c58223ad0308a54ea597b8ae97d8e47eb3e624d", "small 2× geometry, the zero-alloc test's size"},
}

func byteDigest(p *vmath.BytePlane) string {
	h := sha256.Sum256(p.Pix)
	return hex.EncodeToString(h[:])
}

// TestFastUpscaleGolden upscales each pinned frame and compares digests.
func TestFastUpscaleGolden(t *testing.T) {
	for _, c := range goldenFast {
		g := video.NewGenerator(video.Categories()[3], c.seed)
		lr := vmath.NewBytePlane(c.lrW, c.lrH).FromPlane(g.Render(c.t, c.lrW, c.lrH))
		out := vmath.NewBytePlane(c.outW, c.outH)
		NewFast(Config{OutW: c.outW, OutH: c.outH}).UpscaleBytesInto(out, lr)
		if got := byteDigest(out); got != c.digest {
			t.Errorf("%dx%d → %dx%d (%s): digest %s, want %s", c.lrW, c.lrH, c.outW, c.outH, c.why, got, c.digest)
		}
	}
}

// goldenFastFloat pins FastUpscaler.Upscale's float output — the path the
// client's fixed tier runs — on rendered frames and on noisy float inputs
// with fractional values outside [0, 255], at the play geometry, small and
// odd 2× geometries, every sharpen regime (default, strong, none) and one
// non-2× ratio. The digests were computed before the 2× path read and
// wrote float planes itself, through FromPlane, UpscaleBytesInto and
// ToPlane.
var goldenFastFloat = []struct {
	lrW, lrH, outW, outH int
	seed                 int64
	t                    int
	boost                float32
	noisy                bool
	digest               string
}{
	{960, 540, 1920, 1080, 1, 95, 0, false, "564eaac65aa89ae2cb229a366f1d378a520663c6d0be58597f8178f682f2845c"},
	{160, 90, 320, 180, 7, 12, 0, false, "15046d5ebfcbb24440c589411cf09543c33e8dcecdc825a9cbab605568325f4e"},
	{97, 53, 194, 106, 3, 0, 0.35, true, "690ca36ac8ebfb4c73cf3eaf3489f09a52b894bb35977558bae6a9a697bc5234"},
	{33, 17, 66, 34, 4, 0, -1, true, "6e6424421c938317ef5f92d58e657767fa3c63de92a41e4188144b09bc6328f3"},
	{160, 90, 240, 135, 7, 12, 0, false, "fa4aa01cddf1a26cd630f6468760f9a487d98dd7ede75d3d9552ca1675423e8e"},
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
		out := NewFast(Config{OutW: c.outW, OutH: c.outH, DetailBoost: c.boost}).Upscale(lr)
		if got := floatDigest(out); got != c.digest {
			t.Errorf("%dx%d → %dx%d boost %v: digest %s, want %s", c.lrW, c.lrH, c.outW, c.outH, c.boost, got, c.digest)
		}
		vmath.Put(out)
	}
}
