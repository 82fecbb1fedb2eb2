package flow

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

// fieldDigest is the SHA-256 of f's U, V and Conf float32 bits (little
// endian), lane after lane.
func fieldDigest(f *Field) string {
	h := sha256.New()
	var b [4]byte
	for _, lane := range [][]float32{f.U, f.V, f.Conf} {
		for _, v := range lane {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// flowGoldens pins, per matcher and geometry, the bits of the estimated
// field, of that field resampled to 1.5× its size, and of the resampled
// field snapped at the recovery threshold. The inputs are two consecutive
// renders of moving content; the options are the recovery base-flow ones.
var flowGoldens = map[string]string{
	"float/480x270/est":  "b130783c98ca411e3a3d69641160916652edd7501a2777f3500389cc213a131a",
	"float/480x270/up":   "b1eaa025c2e46ff34b127508cdb8ea349193eaba25f6068731d42f077b206171",
	"float/480x270/snap": "f37800c433fa109ee52d387d00dc1260909486eb5ebfae5e915b78957238303e",
	"float/161x97/est":   "fad8ebb4e3d1cf7253bdaa8c5fd8a399b945a8c4128d4ed9f22a76553b7befe4",
	"float/161x97/up":    "a1e069d12883bad4cfe43a3f8c4e99a5b38969e2283197bcdb995f4d33cf59d7",
	"float/161x97/snap":  "669d03f19dbe7d982a25d5419652cd327c6f7c9a76f3642c645cd340c63448c2",
	"bytes/240x135/est":  "999218d2966f167afa505dac8bc71b42ae6a38592022c01f4832d6ae518459f3",
	"bytes/240x135/up":   "a768d5e564997f156980a4b9a45d2a6826129bdb21516e078e4bc5e9ee084754",
	"bytes/240x135/snap": "959d13f6f1f21969f14aa3c8979611e2f4db6c884c07ff442edd9a2ad79d3f3d",
	"bytes/161x97/est":   "86c654939a384c87183cc31f085616ddfb433bb467d10942e6145cdcef7a9ac0",
	"bytes/161x97/up":    "a61bf3c2b0002b774cced0ac0f0103add59d58110ee234f701fdb73e86cdd0b8",
	"bytes/161x97/snap":  "1a8213b562f45651a9596aa2c6dd8bda634148ee8136acb9a6620bb08f9e6921",
}

// flowDigests runs one matcher ("float" or "bytes") at one geometry and
// adds the digest of each stage to out, keyed like flowGoldens.
func flowDigests(out map[string]string, tier string, w, h int) {
	g := video.NewGenerator(video.Categories()[3], 9)
	prev, cur := g.Render(20, w, h), g.Render(21, w, h)
	opts := Options{Levels: 3, Search: 3, ZeroBias: 0.4}
	var f *Field
	if tier == "float" {
		f = Estimate(prev, cur, opts)
	} else {
		f = EstimateBytes(vmath.NewBytePlane(w, h).FromPlane(prev), vmath.NewBytePlane(w, h).FromPlane(cur), opts)
	}
	key := fmt.Sprintf("%s/%dx%d/", tier, w, h)
	out[key+"est"] = fieldDigest(f)
	up := f.Resample(w*3/2, h*3/2)
	out[key+"up"] = fieldDigest(up)
	out[key+"snap"] = fieldDigest(up.SnapIntegers(0.35))
}

// TestFlowGolden checks every digest at pool sizes 1, 2 and 4: the
// matchers' band boundaries depend only on the frame size, so the pool
// size may not move a bit.
func TestFlowGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		restore := par.SetWorkers(workers)
		got := map[string]string{}
		flowDigests(got, "float", 480, 270)
		flowDigests(got, "float", 161, 97)
		flowDigests(got, "bytes", 240, 135)
		flowDigests(got, "bytes", 161, 97)
		restore()
		for key, want := range flowGoldens {
			if got[key] != want {
				t.Errorf("workers=%d %s: digest %s, want %s", workers, key, got[key], want)
			}
		}
	}
}
