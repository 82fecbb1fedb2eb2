package codec

import "math"

// AAN (Arai–Agui–Nakajima) butterfly factorisation of the 8-point DCT:
// 5 multiplies and 29 adds per 1-D transform against 64 multiplies for the
// basis-matrix form, at the price of a known diagonal output scaling that
// this codec folds into the quantiser tables (transformSet.quantRecip /
// dequantStep), so scaling costs nothing at runtime.
//
// Scale relation to the orthonormal DCT (fdct8Ref/idct8Ref): with
// aan[0] = 1 and aan[k] = √2·cos(kπ/16),
//
//	fdct8 output  = X[v][u] · 8·aan[u]·aan[v]
//	idct8 input   = X[v][u] · aan[u]·aan[v]/8
//
// where X is the orthonormal 2-D DCT. The ratio invScale/fwdScale is the
// uniform 1/64, so idct8(fdct8(x)/64) == x up to float rounding.
//
// Rounding rule: every product that feeds an add or subtract is wrapped in
// an explicit float32 conversion. Go may fuse a*b+c into one
// multiply-add (it does on arm64, not on amd64 GOAMD64=v1), which skips
// the product's rounding; the spec forbids fusion across an explicit
// conversion. With the rule, fdct8, idct8 and the quantiser round the same
// way on every platform, so an encoder and a decoder on different
// architectures reconstruct bit-identical frames. On amd64 the
// conversions emit no instructions. CI builds the package for arm64 and
// fails on any fused multiply-add outside the reference transforms.

// Forward butterfly constants: cos(π/4), cos(3π/8), cos(3π/8)·√2·cos(π/8)
// factored as in jfdctflt — c4, c6, c2−c6, c2+c6 in libjpeg's notation.
const (
	aanF1 = 0.707106781 // c4
	aanF2 = 0.382683433 // c6
	aanF3 = 0.541196100 // c2 − c6
	aanF4 = 1.306562965 // c2 + c6
)

// Inverse butterfly constants (jidctflt's notation): √2, √2·c2, √2·c6,
// −√2·(c2+c6)·... — the exact products fall out of the flow-graph
// transposition of the forward transform.
const (
	aanI1 = 1.414213562  // √2
	aanI2 = 1.847759065  // 2·cos(π/8)·... (z5 factor)
	aanI3 = 1.082392200  // z12 factor
	aanI4 = -2.613125930 // z10 factor
)

// fdct8 computes the scaled 2-D forward DCT of an 8×8 block (row-major
// in/out): out[v*8+u] = X[v][u]·fwdScale[v*8+u] with X the orthonormal DCT.
// quantise knows about the scaling; everything else should not call this
// directly but go through xf.fdct.
func fdct8(in, out *[64]float32) {
	// Rows.
	for y := 0; y < 8; y++ {
		r := in[y*8 : y*8+8]
		tmp0, tmp7 := r[0]+r[7], r[0]-r[7]
		tmp1, tmp6 := r[1]+r[6], r[1]-r[6]
		tmp2, tmp5 := r[2]+r[5], r[2]-r[5]
		tmp3, tmp4 := r[3]+r[4], r[3]-r[4]

		// Even part.
		tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2
		o := out[y*8 : y*8+8]
		o[0] = tmp10 + tmp11
		o[4] = tmp10 - tmp11
		z1 := float32((tmp12 + tmp13) * aanF1)
		o[2] = tmp13 + z1
		o[6] = tmp13 - z1

		// Odd part.
		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7
		z5 := float32((tmp10 - tmp12) * aanF2)
		z2 := float32(aanF3*tmp10) + z5
		z4 := float32(aanF4*tmp12) + z5
		z3 := float32(tmp11 * aanF1)
		z11, z13 := tmp7+z3, tmp7-z3
		o[5] = z13 + z2
		o[3] = z13 - z2
		o[1] = z11 + z4
		o[7] = z11 - z4
	}
	// Columns (identical butterfly at stride 8, in place over out).
	for x := 0; x < 8; x++ {
		c := out[x:]
		tmp0, tmp7 := c[0]+c[56], c[0]-c[56]
		tmp1, tmp6 := c[8]+c[48], c[8]-c[48]
		tmp2, tmp5 := c[16]+c[40], c[16]-c[40]
		tmp3, tmp4 := c[24]+c[32], c[24]-c[32]

		tmp10, tmp13 := tmp0+tmp3, tmp0-tmp3
		tmp11, tmp12 := tmp1+tmp2, tmp1-tmp2
		c[0] = tmp10 + tmp11
		c[32] = tmp10 - tmp11
		z1 := float32((tmp12 + tmp13) * aanF1)
		c[16] = tmp13 + z1
		c[48] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7
		z5 := float32((tmp10 - tmp12) * aanF2)
		z2 := float32(aanF3*tmp10) + z5
		z4 := float32(aanF4*tmp12) + z5
		z3 := float32(tmp11 * aanF1)
		z11, z13 := tmp7+z3, tmp7-z3
		c[40] = z13 + z2
		c[24] = z13 - z2
		c[8] = z11 + z4
		c[56] = z11 - z4
	}
}

// idct8 computes the 2-D inverse DCT of an 8×8 coefficient block whose
// entries are pre-scaled by invScale (dequantise produces exactly that).
func idct8(in, out *[64]float32) {
	// Columns.
	for x := 0; x < 8; x++ {
		c := in[x:]
		// Even part.
		tmp10 := c[0] + c[32]
		tmp11 := c[0] - c[32]
		tmp13 := c[16] + c[48]
		tmp12 := float32((c[16]-c[48])*aanI1) - tmp13
		tmp0, tmp3 := tmp10+tmp13, tmp10-tmp13
		tmp1, tmp2 := tmp11+tmp12, tmp11-tmp12

		// Odd part.
		z13 := c[40] + c[24]
		z10 := c[40] - c[24]
		z11 := c[8] + c[56]
		z12 := c[8] - c[56]
		tmp7 := z11 + z13
		tmp11 = float32((z11 - z13) * aanI1)
		z5 := float32((z10 + z12) * aanI2)
		tmp10 = float32(aanI3*z12) - z5
		tmp12 = float32(aanI4*z10) + z5
		tmp6 := tmp12 - tmp7
		tmp5 := tmp11 - tmp6
		tmp4 := tmp10 + tmp5

		o := out[x:]
		o[0] = tmp0 + tmp7
		o[56] = tmp0 - tmp7
		o[8] = tmp1 + tmp6
		o[48] = tmp1 - tmp6
		o[16] = tmp2 + tmp5
		o[40] = tmp2 - tmp5
		o[32] = tmp3 + tmp4
		o[24] = tmp3 - tmp4
	}
	// Rows (in place over out).
	for y := 0; y < 8; y++ {
		r := out[y*8 : y*8+8]
		tmp10 := r[0] + r[4]
		tmp11 := r[0] - r[4]
		tmp13 := r[2] + r[6]
		tmp12 := float32((r[2]-r[6])*aanI1) - tmp13
		tmp0, tmp3 := tmp10+tmp13, tmp10-tmp13
		tmp1, tmp2 := tmp11+tmp12, tmp11-tmp12

		z13 := r[5] + r[3]
		z10 := r[5] - r[3]
		z11 := r[1] + r[7]
		z12 := r[1] - r[7]
		tmp7 := z11 + z13
		tmp11 = float32((z11 - z13) * aanI1)
		z5 := float32((z10 + z12) * aanI2)
		tmp10 = float32(aanI3*z12) - z5
		tmp12 = float32(aanI4*z10) + z5
		tmp6 := tmp12 - tmp7
		tmp5 := tmp11 - tmp6
		tmp4 := tmp10 + tmp5

		r[0] = tmp0 + tmp7
		r[7] = tmp0 - tmp7
		r[1] = tmp1 + tmp6
		r[6] = tmp1 - tmp6
		r[2] = tmp2 + tmp5
		r[5] = tmp2 - tmp5
		r[4] = tmp3 + tmp4
		r[3] = tmp3 - tmp4
	}
}

// aanTransforms returns the AAN transform set with its diagonal scaling
// folded into the quant tables.
func aanTransforms() transformSet {
	var aan [8]float64
	aan[0] = 1
	for k := 1; k < 8; k++ {
		aan[k] = math.Sqrt2 * math.Cos(float64(k)*math.Pi/16)
	}
	var fwd, inv [64]float32
	for v := 0; v < 8; v++ {
		for u := 0; u < 8; u++ {
			s := aan[u] * aan[v]
			fwd[v*8+u] = float32(8 * s)
			inv[v*8+u] = float32(s / 8)
		}
	}
	return newTransformSet(fdct8, idct8, fwd, inv)
}
