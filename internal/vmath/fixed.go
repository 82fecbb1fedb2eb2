package vmath

// Fixed-point kernels on BytePlane — the int16/SWAR tier of the per-frame
// pipeline. The float Plane kernels in resize.go/conv.go are the reference
// semantics; the kernels here trade float arithmetic for integer lanes
// packed in uint64 words (SIMD-within-a-register, the same idiom as the
// codec's byte-plane SAD) so the recover/SR chain can stay in uint8/int16
// end to end. Each kernel documents its error bound against the float
// reference and is differential-tested against it (fixed_test.go):
//
//   - ResizeNearestBytesInto  — bit-exact (same index math, float64 taps);
//   - ResizeBilinearBytesInto — ≤1 LSB (Q15 weights vs float32 weights);
//   - ConvolveSeparableBytesInto — ≤1 LSB for unit-gain kernels quantised
//     with FixedTaps at shift ≥ 12 (Q6 intermediate rounding + tap
//     quantisation stay under half an LSB combined);
//   - SharpenBytesInto — ≤1 LSB (exact binomial blur, one final rounding).
//
// All destinations are written in full, so they may come dirty from the
// BytePool; intermediates are pooled. Like the float kernels, everything
// parallelises over row bands with pool-size-independent results.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"nerve/internal/par"
)

// fixedWeightShift is the weight precision of the bilinear kernels: Q15,
// so a full weight is 1<<15 and a vertical+horizontal lerp accumulates to
// Q30 before the final rounding shift. Q15 keeps the worst-case weight
// quantisation error (255 · 2·2⁻¹⁵ ≈ 0.016 grey levels) far inside the
// ≤1 LSB contract while two byte samples ride in the two 32-bit lanes of
// one uint64: lane values stay ≤ 255·2¹⁵ < 2²³, so lane products never
// carry into each other.
const fixedWeightShift = 15

// byteTap is one output coordinate of a bilinear resize: the two source
// indices (already border-clamped) and the Q15 weight of i1.
type byteTap struct {
	i0, i1 int32
	w      uint32
}

// tapKey identifies a resize geometry along one axis.
type tapKey struct{ src, dst int }

// resizeTaps caches per-axis tap tables. Resizes happen at a handful of
// fixed geometries every frame (LR→work, LR→display), so the cache keeps
// the warm path allocation-free, like gaussTaps does for blur kernels.
// Cached slices are shared and must never be mutated.
var resizeTaps struct {
	sync.RWMutex
	bilinear map[tapKey][]byteTap
	nearest  map[tapKey][]int32
}

// bilinearTapsFor returns the cached Q15 bilinear tap table mapping dst
// coordinates to src coordinates along one axis, pixel-centre aligned:
// pos = (i+0.5)·src/dst − 0.5, evaluated exactly in integer arithmetic
// (floor of the rational) rather than via float64, which keeps the table
// deterministic across platforms.
func bilinearTapsFor(src, dst int) []byteTap {
	key := tapKey{src, dst}
	resizeTaps.RLock()
	t := resizeTaps.bilinear[key]
	resizeTaps.RUnlock()
	if t != nil {
		return t
	}
	t = make([]byteTap, dst)
	for i := 0; i < dst; i++ {
		// q = floor(((i+0.5)·src/dst − 0.5) · 2¹⁵)
		//   = floor((2i+1)·src·2¹⁴ / dst) − 2¹⁴
		q := (int64(2*i+1)*int64(src)<<14)/int64(dst) - 1<<14
		i0 := int32(q >> fixedWeightShift)
		w := uint32(q & (1<<fixedWeightShift - 1))
		switch {
		case i0 < 0:
			// Replicate padding: both samples clamp to pixel 0, making the
			// weight irrelevant — zero it so the lerp is an exact copy.
			t[i] = byteTap{0, 0, 0}
		case int(i0) >= src-1:
			t[i] = byteTap{int32(src - 1), int32(src - 1), 0}
		default:
			t[i] = byteTap{i0, i0 + 1, w}
		}
	}
	resizeTaps.Lock()
	if resizeTaps.bilinear == nil {
		resizeTaps.bilinear = make(map[tapKey][]byteTap)
	}
	resizeTaps.bilinear[key] = t
	resizeTaps.Unlock()
	return t
}

// nearestTapsFor returns the cached nearest-neighbour source index per dst
// coordinate. The indices are computed with exactly the float64 expression
// ResizeNearestInto uses, so the byte kernel is bit-exact with the float
// one by construction.
func nearestTapsFor(src, dst int) []int32 {
	key := tapKey{src, dst}
	resizeTaps.RLock()
	t := resizeTaps.nearest[key]
	resizeTaps.RUnlock()
	if t != nil {
		return t
	}
	t = make([]int32, dst)
	s := float64(src) / float64(dst)
	for i := 0; i < dst; i++ {
		j := int((float64(i) + 0.5) * s)
		if j >= src {
			j = src - 1
		}
		t[i] = int32(j)
	}
	resizeTaps.Lock()
	if resizeTaps.nearest == nil {
		resizeTaps.nearest = make(map[tapKey][]int32)
	}
	resizeTaps.nearest[key] = t
	resizeTaps.Unlock()
	return t
}

// ResizeNearestBytesInto resamples src to dst's size with nearest-neighbour
// sampling — bit-exact with ResizeNearestInto on a byte shadow. dst must
// not alias src.
func ResizeNearestBytesInto(dst, src *BytePlane) *BytePlane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if src.W == 0 || src.H == 0 {
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return dst
	}
	xt := nearestTapsFor(src.W, w)
	yt := nearestTapsFor(src.H, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := src.Pix[int(yt[y])*src.W:]
			out := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				out[x] = row[xt[x]]
			}
		}
	})
	return dst
}

// ResizeBilinearBytesInto resamples src to dst's size with pixel-centre
// bilinear interpolation in Q15 fixed point. The two vertical neighbours of
// each source column ride in the two 32-bit lanes of one uint64, so a
// single multiply-add performs both horizontal lerps; the vertical lerp
// then runs in 64-bit Q30 with one final round-to-nearest shift.
//
// Error bound vs PixelByte(ResizeBilinearInto(float shadow)): ≤1 LSB
// (weight quantisation ≈0.016 grey levels plus differing rounding at
// exact-half ties). When dst is exactly 2× src on both axes the work runs
// on the row-cached exact-2× kernel (resize2x.go), which computes the same
// bits. dst must not alias src.
func ResizeBilinearBytesInto(dst, src *BytePlane) *BytePlane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if src.W == 0 || src.H == 0 {
		for i := range dst.Pix {
			dst.Pix[i] = 0
		}
		return dst
	}
	if is2x(dst, src) {
		buf := GetBytes(up2xBands(src.H)*up2xBandBytes(src.W, false, false), 1)
		upscale2x(up2xIO{srcB: src, dstB: dst, w: src.W, h: src.H}, 0, buf.Pix)
		PutBytes(buf)
		return dst
	}
	return resizeBilinearBytesGeneric(dst, src)
}

// resizeBilinearBytesGeneric is the tap-table kernel behind
// ResizeBilinearBytesInto for every geometry but exact 2×, and the oracle
// the exact-2× kernel is tested against. dst and src must be non-empty.
func resizeBilinearBytesGeneric(dst, src *BytePlane) *BytePlane {
	w, h := dst.W, dst.H
	xt := bilinearTapsFor(src.W, w)
	yt := bilinearTapsFor(src.H, h)
	const one = 1 << fixedWeightShift
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			t := yt[y]
			row0 := src.Pix[int(t.i0)*src.W:]
			row1 := src.Pix[int(t.i1)*src.W:]
			wy := uint64(t.w)
			iwy := uint64(one) - wy
			out := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				tx := xt[x]
				// Lane 0: row0 (top), lane 1: row1 (bottom).
				a := uint64(row0[tx.i0]) | uint64(row1[tx.i0])<<32
				b := uint64(row0[tx.i1]) | uint64(row1[tx.i1])<<32
				// One multiply-add lerps both rows horizontally (Q15 lanes).
				hq := a*(uint64(one)-uint64(tx.w)) + b*uint64(tx.w)
				top := hq & 0xffffffff
				bot := hq >> 32
				// Vertical lerp to Q30, round to nearest.
				out[x] = uint8((top*iwy + bot*wy + 1<<29) >> 30)
			}
		}
	})
	return dst
}

// FixedTaps quantises a float tap vector to Q(shift) int16 taps with
// sum-preserving rounding: each tap is rounded to nearest and the centre
// tap absorbs the residual so the quantised sum equals the rounded
// quantised kernel sum exactly. For a normalised kernel (sum 1) the DC
// gain is therefore exactly 1<<shift, which makes flat regions bit-exact
// through ConvolveSeparableBytesInto.
func FixedTaps(taps []float32, shift uint) []int16 {
	q := make([]int16, len(taps))
	var sumF float64
	var sumQ int64
	for i, t := range taps {
		v := int64(roundHalfAway(float64(t) * float64(int64(1)<<shift)))
		q[i] = int16(v)
		sumQ += v
		sumF += float64(t)
	}
	target := int64(roundHalfAway(sumF * float64(int64(1)<<shift)))
	q[len(q)/2] += int16(target - sumQ)
	return q
}

func roundHalfAway(v float64) int64 {
	if v >= 0 {
		return int64(v + 0.5)
	}
	return -int64(-v + 0.5)
}

// convMidShift is the fractional precision of the horizontal intermediate
// in ConvolveSeparableBytesInto: Q6, stored as a bias-32768 uint16 pair in
// a pooled byte plane. Six fractional bits keep the intermediate rounding
// error (±2⁻⁷ grey levels, scaled by the vertical kernel's ≈unit gain)
// negligible against the ≤1 LSB contract while leaving 9 integer bits of
// headroom: kernels with Σ|kx|·255 < 2^(shift−6)·32768 — i.e. horizontal
// gain below ≈2 — are representable.
const convMidShift = 6

// ConvolveSeparableBytesInto applies a separable filter with Q(shift)
// int16 taps — horizontal kx then vertical ky, replicate padding — to src,
// writing clamped [0,255] bytes into dst (same size as src). The
// horizontal intermediate lives at Q6 in a pooled 2W-wide byte plane
// (bias-32768 uint16 little-endian pairs), so the steady-state cost is
// zero plane allocations; dst MAY alias src. shift must be in [7, 14];
// taps from FixedTaps at shift 12 satisfy the ≤1 LSB contract for
// unit-gain kernels.
//
// When every vertical tap is non-negative (blurs — the hot per-frame
// case), the vertical pass runs a SWAR fast path: two biased-uint16
// columns ride in the 32-bit lanes of one uint64 and accumulate with one
// multiply-add per tap. The fast path computes exactly the same sums as
// the scalar path (the bias unfolds after accumulation), so results are
// identical with and without it.
func ConvolveSeparableBytesInto(dst, src *BytePlane, kx, ky []int16, shift uint) *BytePlane {
	if len(kx)%2 == 0 || len(ky)%2 == 0 {
		panic("vmath: ConvolveSeparableBytes needs odd tap vectors")
	}
	if shift < 7 || shift > 14 {
		panic(fmt.Sprintf("vmath: ConvolveSeparableBytes shift %d outside [7, 14]", shift))
	}
	if dst.W != src.W || dst.H != src.H {
		panic(fmt.Sprintf("vmath: dst size %dx%d != %dx%d", dst.W, dst.H, src.W, src.H))
	}
	var sumAbsX int64
	for _, k := range kx {
		if k < 0 {
			sumAbsX -= int64(k)
		} else {
			sumAbsX += int64(k)
		}
	}
	// The Q6 intermediate must fit the biased int16: |mid| ≤ 32767.
	if (sumAbsX*255)>>(shift-convMidShift) > 32767 {
		panic("vmath: ConvolveSeparableBytes horizontal gain too large for the Q6 intermediate")
	}
	w, h := src.W, src.H
	if w == 0 || h == 0 {
		return dst
	}

	// Horizontal pass: int32 accumulate at Q(shift), round to Q6, store
	// biased in a pooled 2W-wide byte plane.
	mid := GetBytes(2*w, h)
	rx := len(kx) / 2
	roundH := int32(1) << (shift - convMidShift - 1)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			srow := src.Pix[y*w : y*w+w]
			mrow := mid.Pix[y*2*w : y*2*w+2*w]
			for x := 0; x < w; x++ {
				var acc int32
				for i, k := range kx {
					sx := x + i - rx
					if sx < 0 {
						sx = 0
					} else if sx >= w {
						sx = w - 1
					}
					acc += int32(k) * int32(srow[sx])
				}
				m := (acc + roundH) >> (shift - convMidShift)
				binary.LittleEndian.PutUint16(mrow[2*x:], uint16(m+32768))
			}
		}
	})

	// Vertical pass: Q(shift)·Q6 accumulate, one rounding shift to bytes.
	ry := len(ky) / 2
	outShift := shift + convMidShift
	roundV := int64(1) << (outShift - 1)
	allNonNeg := true
	var sumY int64
	for _, k := range ky {
		if k < 0 {
			allNonNeg = false
		}
		sumY += int64(k)
	}
	// SWAR lane bound: Σky · 65535 must stay below 2³² so biased lanes
	// never carry. Σky ≤ 2¹⁴ (shift ≤ 14 with ≈unit gain) keeps this true;
	// oversized kernels just take the scalar path.
	swar := allNonNeg && sumY*65535 < 1<<32
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			orow := dst.Pix[y*w : y*w+w]
			x := 0
			if swar {
				for ; x+1 < w; x += 2 {
					var acc uint64
					for j, k := range ky {
						sy := y + j - ry
						if sy < 0 {
							sy = 0
						} else if sy >= h {
							sy = h - 1
						}
						mrow := mid.Pix[sy*2*w+2*x:]
						u := uint64(binary.LittleEndian.Uint16(mrow)) |
							uint64(binary.LittleEndian.Uint16(mrow[2:]))<<32
						acc += uint64(k) * u
					}
					bias := uint64(sumY) * 32768
					orow[x] = clampByteQ(int64(acc&0xffffffff)-int64(bias), roundV, outShift)
					orow[x+1] = clampByteQ(int64(acc>>32)-int64(bias), roundV, outShift)
				}
			}
			for ; x < w; x++ {
				var acc int64
				for j, k := range ky {
					sy := y + j - ry
					if sy < 0 {
						sy = 0
					} else if sy >= h {
						sy = h - 1
					}
					u := binary.LittleEndian.Uint16(mid.Pix[sy*2*w+2*x:])
					acc += int64(k) * (int64(u) - 32768)
				}
				orow[x] = clampByteQ(acc, roundV, outShift)
			}
		}
	})
	PutBytes(mid)
	return dst
}

// clampByteQ rounds a Q(outShift) accumulator to a clamped byte.
func clampByteQ(acc, round int64, outShift uint) uint8 {
	v := (acc + round) >> outShift
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// SharpenBytesInto applies a binomial unsharp mask to src in integer
// arithmetic: dst = clamp(src + amount·(src − blur(src))), where blur is
// the separable [1 2 1]/4 kernel and amount is the Q8 fraction a256/256.
// The blur is computed exactly (Q4 integer, no intermediate rounding —
// the horizontal Q2 sums live in a pooled 2W-wide byte plane as uint16
// pairs), so the only rounding is the final Q12→byte shift: ≤1 LSB vs the
// float composite. dst MAY alias src. a256 ≤ 0 copies src.
func SharpenBytesInto(dst, src *BytePlane, a256 int32) *BytePlane {
	if dst.W != src.W || dst.H != src.H {
		panic(fmt.Sprintf("vmath: dst size %dx%d != %dx%d", dst.W, dst.H, src.W, src.H))
	}
	w, h := src.W, src.H
	if w == 0 || h == 0 {
		return dst
	}
	if a256 <= 0 {
		if dst != src {
			copy(dst.Pix, src.Pix)
		}
		return dst
	}
	// Horizontal [1 2 1]: exact Q2 sums (≤1020) as uint16 pairs.
	mid := GetBytes(2*w, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			srow := src.Pix[y*w : y*w+w]
			mrow := mid.Pix[y*2*w : y*2*w+2*w]
			for x := 0; x < w; x++ {
				xm, xp := x-1, x+1
				if xm < 0 {
					xm = 0
				}
				if xp >= w {
					xp = w - 1
				}
				s := uint16(srow[xm]) + 2*uint16(srow[x]) + uint16(srow[xp])
				binary.LittleEndian.PutUint16(mrow[2*x:], s)
			}
		}
	})
	// Vertical [1 2 1] to exact Q4 blur, then the unsharp combine:
	// out = (2¹²·src + a256·(2⁴·src − blur16) + 2¹¹) >> 12, clamped.
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			ym, yp := y-1, y+1
			if ym < 0 {
				ym = 0
			}
			if yp >= h {
				yp = h - 1
			}
			srow := src.Pix[y*w : y*w+w]
			m0 := mid.Pix[ym*2*w:]
			m1 := mid.Pix[y*2*w:]
			m2 := mid.Pix[yp*2*w:]
			orow := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				b16 := int32(binary.LittleEndian.Uint16(m0[2*x:])) +
					2*int32(binary.LittleEndian.Uint16(m1[2*x:])) +
					int32(binary.LittleEndian.Uint16(m2[2*x:]))
				p16 := int32(srow[x]) << 4
				v := (p16<<8 + a256*(p16-b16) + 1<<11) >> 12
				if v < 0 {
					v = 0
				} else if v > 255 {
					v = 255
				}
				orow[x] = uint8(v)
			}
		}
	})
	PutBytes(mid)
	return dst
}

// ToPlane writes p's bytes into dst as float32 pixels (same dimensions)
// and returns dst — the inverse of FromPlane, used where the fixed-point
// tier hands a byte plane back to a float consumer.
func (p *BytePlane) ToPlane(dst *Plane) *Plane {
	if dst.W != p.W || dst.H != p.H {
		panic(fmt.Sprintf("vmath: size mismatch %dx%d vs %dx%d", dst.W, dst.H, p.W, p.H))
	}
	for i, v := range p.Pix {
		dst.Pix[i] = float32(v)
	}
	return dst
}

// SAD8 sums the absolute differences of the eight byte lanes packed in x
// and y — the SWAR primitive behind the codec's byte-plane SAD, exported
// here for the byte-plane flow matcher. Bytes are split into even/odd
// 16-bit lanes; a guard bit at lane position 8 records x≥y per lane
// without cross-lane borrows and selects max−min branch-free; the
// horizontal sum is one multiply.
func SAD8(x, y uint64) uint64 {
	const (
		lanes = 0x00ff00ff00ff00ff
		ones  = 0x0001000100010001
	)
	xe, ye := x&lanes, y&lanes
	xo, yo := (x>>8)&lanes, (y>>8)&lanes
	return ((sadLanes(xe, ye) + sadLanes(xo, yo)) * ones) >> 48
}

// sadLanes computes per-16-bit-lane |x−y| for lane values ≤ 255.
func sadLanes(x, y uint64) uint64 {
	const guard = 0x0100010001000100
	s := ((x | guard) - y) & guard
	m := s - (s >> 8)
	max := (x & m) | (y &^ m)
	min := (y & m) | (x &^ m)
	return max - min
}
