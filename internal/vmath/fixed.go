package vmath

// Fixed-point kernels on BytePlane — the int16/SWAR tier of the per-frame
// pipeline. The float Plane kernels in resize.go/conv.go are the reference
// semantics; the kernels here trade float arithmetic for integer lanes
// packed in uint64 words (SIMD-within-a-register, the same idiom as the
// codec's byte-plane SAD) so the recover/SR chain can stay in uint8/int16
// end to end. ResizeBilinearBytesInto documents its error bound against
// the float reference (≤1 LSB: Q15 weights vs float32 weights) and is
// differential-tested against it (fixed_test.go).
//
// All destinations are written in full, so they may come dirty from the
// BytePool; intermediates are pooled. Like the float kernels, everything
// parallelises over row bands with pool-size-independent results.

import (
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
		buf := GetBytes(up2xBands(src.H)*up2xBandBytes(src.W, false), 1)
		upscale2x(up2xIO{srcB: src, dstB: dst, w: src.W, h: src.H}, buf.Pix)
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
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			t := yt[y]
			row0 := src.Pix[int(t.i0)*src.W:]
			row1 := src.Pix[int(t.i1)*src.W:]
			out := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				tx := xt[x]
				out[x] = bilerpQ15(row0[tx.i0], row1[tx.i0], row0[tx.i1], row1[tx.i1], tx.w, t.w)
			}
		}
	})
	return dst
}

// bilerpQ15 is one output pixel of the tap-table kernel: top-left a0,
// bottom-left a1, top-right b0 and bottom-right b1 lerped by the Q15
// weights wx (of the right column) and wy (of the bottom row).
func bilerpQ15(a0, a1, b0, b1 uint8, wx, wy uint32) uint8 {
	const one = 1 << fixedWeightShift
	// Lane 0: top row, lane 1: bottom row.
	a := uint64(a0) | uint64(a1)<<32
	b := uint64(b0) | uint64(b1)<<32
	// One multiply-add lerps both rows horizontally (Q15 lanes).
	hq := a*(uint64(one)-uint64(wx)) + b*uint64(wx)
	top := hq & 0xffffffff
	bot := hq >> 32
	// Vertical lerp to Q30, round to nearest.
	return uint8((top*(uint64(one)-uint64(wy)) + bot*uint64(wy) + 1<<29) >> 30)
}

// ResizeBilinearToBytesInto resamples the float plane src into the byte
// plane dst. The result is bit-identical to ResizeBilinearBytesInto on
// the PixelByte shadow of src, but outside exact 2× it rounds only the
// source pixels a tap reads, as it reads them: a 4:1 downscale rounds a
// quarter of the source and writes no shadow plane. Exact-2× upscales
// (and empty planes) go through a pooled shadow and
// ResizeBilinearBytesInto. dst must not alias src.
func ResizeBilinearToBytesInto(dst *BytePlane, src *Plane) *BytePlane {
	w, h := dst.W, dst.H
	if w*h == 0 || src.W*src.H == 0 || w == 2*src.W && h == 2*src.H {
		srcB := GetBytes(src.W, src.H).FromPlane(src)
		ResizeBilinearBytesInto(dst, srcB)
		PutBytes(srcB)
		return dst
	}
	xt := bilinearTapsFor(src.W, w)
	yt := bilinearTapsFor(src.H, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			t := yt[y]
			row0 := src.Pix[int(t.i0)*src.W:]
			row1 := src.Pix[int(t.i1)*src.W:]
			out := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				tx := xt[x]
				out[x] = bilerpQ15(PixelByte(row0[tx.i0]), PixelByte(row1[tx.i0]),
					PixelByte(row0[tx.i1]), PixelByte(row1[tx.i1]), tx.w, t.w)
			}
		}
	})
	return dst
}

// ToPlane writes p's bytes into dst as float32 pixels (same dimensions)
// and returns dst — the inverse of FromPlane, used where the fixed-point
// tier hands a byte plane back to a float consumer. Row bands run on the
// pool.
func (p *BytePlane) ToPlane(dst *Plane) *Plane {
	if dst.W != p.W || dst.H != p.H {
		panic(fmt.Sprintf("vmath: size mismatch %dx%d vs %dx%d", dst.W, dst.H, p.W, p.H))
	}
	par.ForRows(p.H, func(y0, y1 int) {
		out := dst.Pix[y0*p.W : y1*p.W]
		for i, v := range p.Pix[y0*p.W : y1*p.W] {
			out[i] = float32(v)
		}
	})
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
