// Package codec implements the hybrid block-transform video codec that
// stands in for VP9/H.264 in the NERVE reproduction (see DESIGN.md §1).
//
// It is a real, if compact, codec: 16×16 motion-compensated macroblocks,
// 8×8 AAN butterfly DCT of intra pixels or inter residuals (reference
// basis-matrix transforms are kept as test oracles), frequency-weighted
// uniform quantisation, zigzag run/level entropy coding with Exp-Golomb
// codes, GOP structure with periodic intra frames, per-frame rate control
// toward a target bitrate, and slice-based packetisation so that packet
// loss yields partially decodable frames (the Ipart input of the recovery
// model).
package codec

import "math"

const blockSize = 8

// dctBasis[u][x] = C(u)·cos((2x+1)uπ/16) — the 1-D orthonormal DCT-II
// basis, used by the reference transforms.
var dctBasis = makeDCTBasis()

func makeDCTBasis() (b [blockSize][blockSize]float32) {
	for u := 0; u < blockSize; u++ {
		c := math.Sqrt(2.0 / blockSize)
		if u == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for x := 0; x < blockSize; x++ {
			b[u][x] = float32(c * math.Cos(float64(2*x+1)*float64(u)*math.Pi/(2*blockSize)))
		}
	}
	return b
}

// fdct8Ref computes the 2-D forward DCT of an 8×8 block (row-major in/out)
// by direct basis-matrix multiplication: the unscaled orthonormal DCT-II.
// It is the differential-test oracle for the AAN fast path.
func fdct8Ref(in, out *[64]float32) {
	var tmp [64]float32
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float32
			for x := 0; x < 8; x++ {
				s += in[y*8+x] * dctBasis[u][x]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float32
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * dctBasis[v][y]
			}
			out[v*8+u] = s
		}
	}
}

// idct8Ref computes the 2-D inverse DCT of an 8×8 coefficient block by
// direct basis-matrix multiplication (oracle twin of fdct8Ref).
func idct8Ref(in, out *[64]float32) {
	var tmp [64]float32
	// Columns.
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float32
			for v := 0; v < 8; v++ {
				s += in[v*8+u] * dctBasis[v][y]
			}
			tmp[y*8+u] = s
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float32
			for u := 0; u < 8; u++ {
				s += tmp[y*8+u] * dctBasis[u][x]
			}
			out[y*8+x] = s
		}
	}
}

// transformSet bundles a forward/inverse transform pair with its diagonal
// scaling, folded into the quantiser tables (see DESIGN.md §10):
//
//   - fdct produces fwdScale[i]·X[i] where X is the orthonormal DCT; idct
//     expects invScale[i]·X[i] as input. The reference set has all-ones
//     scales; the AAN set has fwdScale = 8·aan[u]·aan[v] and
//     invScale = aan[u]·aan[v]/8, so invScale/fwdScale = 1/64 uniformly.
//   - quantRecip[i] = 1/(quantWeight[i]·fwdScale[i]) and
//     dequantStep[i] = quantWeight[i]·invScale[i] make quantise/dequantise
//     produce the same integer levels and the same reconstructed true
//     coefficients as the unscaled transform would — scaling costs zero
//     extra multiplies, and bitstreams are interchangeable across sets.
type transformSet struct {
	fdct, idct  func(in, out *[64]float32)
	fwdScale    [64]float32
	invScale    [64]float32
	quantRecip  [64]float32
	dequantStep [64]float32
}

// xf is the active transform set: always the AAN set, swapped for the
// reference set only by the package's own parity tests.
var xf = aanTransforms()

func newTransformSet(fdct, idct func(in, out *[64]float32), fwd, inv [64]float32) transformSet {
	ts := transformSet{fdct: fdct, idct: idct, fwdScale: fwd, invScale: inv}
	for i := range ts.quantRecip {
		ts.quantRecip[i] = 1 / (quantWeight[i] * fwd[i])
		ts.dequantStep[i] = quantWeight[i] * inv[i]
	}
	return ts
}

// refTransforms returns the basis-matrix transform set (unit scales).
func refTransforms() transformSet {
	var one [64]float32
	for i := range one {
		one[i] = 1
	}
	return newTransformSet(fdct8Ref, idct8Ref, one, one)
}

// zigzag is the standard 8×8 zigzag scan order.
var zigzag = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// quantWeight is a JPEG-inspired frequency weighting: low frequencies are
// quantised finely, high frequencies coarsely.
var quantWeight = makeQuantWeight()

func makeQuantWeight() (w [64]float32) {
	for v := 0; v < 8; v++ {
		for u := 0; u < 8; u++ {
			w[v*8+u] = 1 + float32(0.6*float32(u+v))
		}
	}
	return w
}

// quantise maps fdct output (in the active set's scaled domain) to integer
// levels for quantiser step q: round(X[i] / (q·quantWeight[i])) in the true
// coefficient domain, with the descale folded into quantRecip. The
// float32 conversion keeps the product from fusing with roundLevel's ±0.5
// (see the rounding rule in dct_aan.go).
func quantise(coef *[64]float32, q float32, levels *[64]int32) {
	invQ := 1 / q
	for i := 0; i < 64; i++ {
		levels[i] = roundLevel(float32(coef[i] * xf.quantRecip[i] * invQ))
	}
}

// dequantise reconstructs idct input (in the active set's scaled domain)
// from levels.
func dequantise(levels *[64]int32, q float32, coef *[64]float32) {
	for i := 0; i < 64; i++ {
		coef[i] = float32(levels[i]) * q * xf.dequantStep[i]
	}
}

// roundLevel rounds half away from zero, like math.Round, without the
// float64 round trip. Every level it returns has a bits.WriteSE code:
// magnitudes past int32 saturate at ±MaxInt32 and NaN maps to 0, where a
// plain conversion would give an implementation-defined value
// (math.MinInt32 on amd64).
func roundLevel(v float32) int32 {
	switch {
	case v >= 1<<31:
		return math.MaxInt32
	case v <= -1<<31:
		return -math.MaxInt32
	case v >= 0:
		return int32(v + 0.5)
	case v < 0:
		return int32(v - 0.5)
	}
	return 0 // NaN
}
