package vmath

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenResizes pins ResizeBilinearBytesInto's output at the recovery
// path's exact-2× geometry and at a non-integer ratio that stays on the
// generic kernel. Any kernel that claims bit-exactness must leave these
// digests exactly as they are.
var goldenResizes = []struct {
	sw, sh, dw, dh int
	digest         string
	why            string
}{
	{480, 270, 960, 540, "7c877fe3ff176da69c03e0992cf49b9dab244629352dc267a1176698d1941c86", "exact 2×: fixed recovery's work-res → frame-res finish"},
	{1280, 720, 1920, 1080, "957c21bb4c7f95a27ee187d8bb9dd788bf3231d16e758797b0200495f38b6d1b", "1.5×: generic kernel"},
}

// goldenResizeSource builds a deterministic byte plane with smooth ramps,
// hard wrap-around edges and per-pixel noise, so every tap and rounding
// tie is exercised.
func goldenResizeSource(w, h int, seed int64) *BytePlane {
	rng := rand.New(rand.NewSource(seed))
	p := NewBytePlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p.Pix[y*w+x] = uint8(x*x/7 + 3*y + x*y/11 + rng.Intn(32))
		}
	}
	return p
}

// TestResizeBilinearBytesGolden resizes each pinned source and compares
// digests.
func TestResizeBilinearBytesGolden(t *testing.T) {
	for i, c := range goldenResizes {
		dst := ResizeBilinearBytesInto(NewBytePlane(c.dw, c.dh), goldenResizeSource(c.sw, c.sh, int64(i+1)))
		sum := sha256.Sum256(dst.Pix)
		if got := hex.EncodeToString(sum[:]); got != c.digest {
			t.Errorf("%dx%d → %dx%d (%s): digest %s, want %s", c.sw, c.sh, c.dw, c.dh, c.why, got, c.digest)
		}
	}
}
