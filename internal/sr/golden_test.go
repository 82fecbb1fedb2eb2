package sr

import (
	"crypto/sha256"
	"encoding/hex"
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
