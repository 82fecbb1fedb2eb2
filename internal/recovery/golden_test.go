package recovery

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"nerve/internal/edgecode"
	"nerve/internal/par"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// planeDigest is the SHA-256 of p's float32 bits (little endian), so any
// kernel change that moves a single bit of any pixel shows.
func planeDigest(p *vmath.Plane) string {
	h := sha256.New()
	var b [4]byte
	for _, v := range p.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recoverGoldens pins Recover's output bits on both tiers, keyed
// tier/geometry/mode. The four modes run as one chain on one Recoverer,
// in this order, so the later calls also read the temporal history:
//
//	first        hinted, no PrevPrev (zero base motion)
//	hinted       hinted with base flow from PrevPrev
//	partial      hinted plus Part/PartMask
//	extrapolated no codes, flow from PrevPrev
//
// A change that claims bit-identical recovery must leave every digest as
// it is. The float digests are amd64's: the float kernels do not guard
// against the multiply-add fusion arm64 compilers apply.
var recoverGoldens = map[string]string{
	"fixed/960x540/first":        "1ba19e788c1054708ec5e22e47ff46eb235580d020b80b9bea1f6d08c5a4b180",
	"fixed/960x540/hinted":       "714484e853263e57988b5caf0ca744a62ffacb871f5b9c15baa77ec8ff47fb32",
	"fixed/960x540/partial":      "53fc456c65ae6e704ff4b561f20eca7aaab040f76b9f3c2fece5580965ebb48e",
	"fixed/960x540/extrapolated": "045afb358d5de8e83fbfa628515a327e36856580c1994329af9fb20fdadaed42",
	"fixed/160x96/first":         "2f97e33402e62e8de16463e1b7f7be12a7b4f111b90f78adef2ca34a78b99052",
	"fixed/160x96/hinted":        "99b95afbee1be6b0cd8a6c9c8d42099b2178e136349efe2e06b3602cb135c586",
	"fixed/160x96/partial":       "bae70f0f84036a76e60f454ab98f26f00013c3abaa544037744f5329ed91409e",
	"fixed/160x96/extrapolated":  "e8b53196ee72c002af779a43738d3454455b08e5da9df347f05907e98483147e",
	"float/960x540/first":        "7fb6779501191e44607f12726473b797e8fc51e596516e5db1588202c42c06a7",
	"float/960x540/hinted":       "71a17a9b9a108c02ddcc5393fed2f9024cfe8dff7789221bab44a991d0d11490",
	"float/960x540/partial":      "7b2865c8a835fb3302123d955287469a682c21fc7ecff48f2ab3d4fabe179eb7",
	"float/960x540/extrapolated": "48a7a49b97992fc19a1076ab470cc9e40c43360e6365397c6ad5c8fe2054db89",
	"float/160x96/first":         "33c9953300c2c36a15554d27f742a0aec03980673bd3db537e05aa78279b9be0",
	"float/160x96/hinted":        "fc6e9f7106c260f9084e400c522c154b473027700b5d6128c57ba746ad307ed8",
	"float/160x96/partial":       "41f8dd20b64e09192bf09b1c822aa4d23106c832b561fde985d1978bacf74c43",
	"float/160x96/extrapolated":  "4f25c9183bbbcf5001cb2455fd3227372ef40978b66c58d6d6a87b359e8a086f",
}

// goldenPartMask marks the rows a decode with dropped slices would have
// received: the top two fifths and a band near the bottom.
func goldenPartMask(w, h int) *vmath.Plane {
	m := vmath.NewPlane(w, h)
	for y := 0; y < h; y++ {
		if y < h*2/5 || (y >= h*3/4 && y < h*7/8) {
			for x := 0; x < w; x++ {
				m.Pix[y*w+x] = 1
			}
		}
	}
	return m
}

// recoverChainDigests runs the golden chain on one tier and geometry and
// returns the digest of each mode's output.
func recoverChainDigests(fixed bool, w, h int) map[string]string {
	g := video.NewGenerator(video.Categories()[3], 21)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: w, OutH: h})
	r.SetFixedPoint(fixed)
	truth := make([]*vmath.Plane, 4)
	codes := make([]*edgecode.Code, 4)
	for k := range truth {
		truth[k] = g.Render(30+k, w, h)
		codes[k] = ext.Extract(truth[k])
	}
	out := map[string]string{}
	first := r.Recover(Input{Prev: truth[0], PrevCode: codes[0], CurCode: codes[1]})
	out["first"] = planeDigest(first)
	hinted := r.Recover(Input{Prev: first, PrevPrev: truth[0], PrevCode: codes[1], CurCode: codes[2]})
	out["hinted"] = planeDigest(hinted)
	partial := r.Recover(Input{Prev: hinted, PrevPrev: first, PrevCode: codes[2], CurCode: codes[3],
		Part: truth[3], PartMask: goldenPartMask(w, h)})
	out["partial"] = planeDigest(partial)
	extra := r.Recover(Input{Prev: partial, PrevPrev: hinted})
	out["extrapolated"] = planeDigest(extra)
	return out
}

// TestRecoverGolden checks every digest at pool sizes 1, 2 and 4: every
// band boundary in the recovery path depends only on the frame size, so
// the pool size may not move a bit.
func TestRecoverGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		restore := par.SetWorkers(workers)
		for _, tier := range []struct {
			name  string
			fixed bool
		}{{"fixed", true}, {"float", false}} {
			for _, sz := range [][2]int{{960, 540}, {tw, th}} {
				got := recoverChainDigests(tier.fixed, sz[0], sz[1])
				for _, mode := range []string{"first", "hinted", "partial", "extrapolated"} {
					key := fmt.Sprintf("%s/%dx%d/%s", tier.name, sz[0], sz[1], mode)
					if want := recoverGoldens[key]; got[mode] != want {
						t.Errorf("workers=%d %s: digest %s, want %s", workers, key, got[mode], want)
					}
				}
			}
		}
		restore()
	}
}
