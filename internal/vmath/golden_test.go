package vmath

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
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

// floatDigest is the SHA-256 of p's float32 bits (little endian).
func floatDigest(p *Plane) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFloatSource is a deterministic float plane with ramps, noise and
// pixels outside [0, 255], so sign and range handling show in the digest.
func goldenFloatSource(w, h int, seed int64) *Plane {
	rng := rand.New(rand.NewSource(seed))
	p := NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = float32(i%w*3+i/w*2) + rng.Float32()*80 - 40
	}
	return p
}

// goldenFloatGeoms are odd geometries for the float kernels: single pixels,
// single rows and columns, and planes narrower than a 7-tap kernel.
var goldenFloatGeoms = [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {5, 3}, {37, 23}, {161, 97}}

// floatKernelGoldens pins ConvolveSeparableInto (7-tap by 5-tap, not
// symmetric) and GradientsInto on goldenFloatGeoms, keyed kernel/WxH.
var floatKernelGoldens = map[string]string{
	"conv/1x1":    "d47e8ea290e103f1e02fa84aee74b37bc7f577238895b883c0375b13c7abe5f5",
	"gx/1x1":      "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
	"gy/1x1":      "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
	"conv/1x9":    "333ec71912de942e555289a729bc9f022dc10c11bd7a5c993ef90f58f4a28ea9",
	"gx/1x9":      "6db65fd59fd356f6729140571b5bcd6bb3b83492a16e1bf0a3884442fc3c8a0e",
	"gy/1x9":      "5f1da27597a0366e9eea74d8f7084c35abf4db04e42ba1ac7cd6fa2245b9923e",
	"conv/9x1":    "8a5a0b8dc6a65e027a24dfbeb534cedad01a260079515d1b3a2d0f08f390a942",
	"gx/9x1":      "20cea1cbbaabb2382ecc370ddfcd77f978d95443ef6489b3d9d7442c147a28b3",
	"gy/9x1":      "b4d0fced225ac4b1e183f02e1e7ffedc4fd8e5650323f61a734b690ee9df28b4",
	"conv/2x2":    "7d8313fe3806953098009e6a1471b20c91a575b00a581a6c1670053699b13891",
	"gx/2x2":      "30102a5a90304ac183b7ba17600b664d3a74611b8c498e70cabfcfd80123e926",
	"gy/2x2":      "6c43b3a0a91e056f9ff94c040a36e4d30a73191472d025cb9d9dc6c61980edd1",
	"conv/5x3":    "1d64cf9066f0eca5be785a1625390c2094e543c7accfeab67ef9812bf7bb8522",
	"gx/5x3":      "96fe20e19bbf14536c52594ce34dfbf80c6eed361f1f34bd065f7b46859e667a",
	"gy/5x3":      "60532ec09b46ed7abb372c70c1a4f8a7a8ad1f321eeb84eb0e7a4b858314e724",
	"conv/37x23":  "cd39b3b54ee6aed2d851ee9deb6c0fb754feda6453b651b6321a9439c8d456d7",
	"gx/37x23":    "b228cb4fc32b6b78504638bcf2788348e24dbdd5fc657e071a232628f3f96f8e",
	"gy/37x23":    "8aee8b6de9a8f0ae620eeb477d80f36aca160eb0909c1d95043dc86c21d2bab0",
	"conv/161x97": "2b31b0254f389f6d35ca2238484acc6b94bad1e9424969844e48337595674931",
	"gx/161x97":   "063849f696ac7bc9c7e4a5a62d67d93b6a3f2e94fa821199d2281f2f6772ee1c",
	"gy/161x97":   "e80adf67b345375199233189eb93e34266f11831fe0a74b31993242d5f79a5b0",
}

func TestFloatKernelsGolden(t *testing.T) {
	kx := []float32{0.05, -0.1, 0.2, 0.5, 0.25, 0.125, -0.025}
	ky := []float32{0.1, 0.2, 0.4, 0.2, 0.1}
	for i, sz := range goldenFloatGeoms {
		w, h := sz[0], sz[1]
		src := goldenFloatSource(w, h, int64(i+7))
		gx, gy := NewPlane(w, h), NewPlane(w, h)
		GradientsInto(gx, gy, src)
		got := map[string]string{
			"conv": floatDigest(ConvolveSeparableInto(NewPlane(w, h), src, kx, ky)),
			"gx":   floatDigest(gx),
			"gy":   floatDigest(gy),
		}
		for _, k := range []string{"conv", "gx", "gy"} {
			key := fmt.Sprintf("%s/%dx%d", k, w, h)
			if want := floatKernelGoldens[key]; got[k] != want {
				t.Errorf("%s: digest %s, want %s", key, got[k], want)
			}
		}
	}
}
