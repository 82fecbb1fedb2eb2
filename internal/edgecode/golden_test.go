package edgecode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"nerve/internal/par"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// planeDigest is the SHA-256 of p's float32 bits (little endian).
func planeDigest(p *vmath.Plane) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// extractGoldens pins, per frame geometry, the bits of two consecutive
// extracted codes (the second reads the extractor's history) and the
// float bits of the second code's soft plane and of its edge guide at the
// frame geometry. These run through the separable convolution and the
// Sobel kernels, so a kernel change that claims bit-exactness must leave
// every digest as it is.
var extractGoldens = map[string]string{
	"960x540/bits":  "876a44520479a97570ea6ce2f944350b337ac4d29ea327681e481bf6e0b5f8da",
	"960x540/soft":  "50931855f74bf48df6c3b93fc1cb8c2eb52e52f0d118eeb7dc9cbab4edd704fc",
	"960x540/guide": "c11863883ad3892134de726a50e04d844cc794e13f13835097de787b21b37568",
	"480x270/bits":  "044e3adb03e17f85908697455cb14d74ba9e5911fcbcd1172b36fbd219337225",
	"480x270/soft":  "ad3727badba219b127dfa1d14a6130cd0d3e840ab39b7bcad8d2e2b92109223c",
	"480x270/guide": "c83b664789dce799537681e4523e321ff0a0e1faf4e940e4f82dc7c8d7c3d5b3",
	"161x97/bits":   "4ba937ded552a812d3cbd7e8e72b30d5316e7e40e6a1c4daa565d5da96440497",
	"161x97/soft":   "eaa42711da5b69a338a6cc6f1dac3ef01ef52f1b5db0bc37e970e43745d5ab5c",
	"161x97/guide":  "f2bab1aea37d2a7c2a37ed5d61b221bc9a0457f60f25ce9ab3421e8006483ba3",
}

// TestExtractGolden checks every digest at pool sizes 1, 2 and 4.
func TestExtractGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		restore := par.SetWorkers(workers)
		for _, sz := range [][2]int{{960, 540}, {480, 270}, {161, 97}} {
			w, h := sz[0], sz[1]
			g := video.NewGenerator(video.Categories()[3], 4)
			e := NewExtractor(0, 0)
			c0 := e.Extract(g.Render(12, w, h))
			c1 := e.Extract(g.Render(13, w, h))
			bits := sha256.New()
			bits.Write(c0.Bits)
			bits.Write(c1.Bits)
			got := map[string]string{
				"bits":  hex.EncodeToString(bits.Sum(nil)),
				"soft":  planeDigest(c1.SoftPlane()),
				"guide": planeDigest(c1.EdgeGuide(w, h)),
			}
			for _, k := range []string{"bits", "soft", "guide"} {
				key := fmt.Sprintf("%dx%d/%s", w, h, k)
				if want := extractGoldens[key]; got[k] != want {
					t.Errorf("workers=%d %s: digest %s, want %s", workers, key, got[k], want)
				}
			}
		}
		restore()
	}
}
