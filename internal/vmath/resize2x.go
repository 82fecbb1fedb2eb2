package vmath

// Exact 2× bilinear kernel — the row-cached specialisation of
// ResizeBilinearBytesInto for dst exactly twice src on both axes, the
// geometry of the byte SR head (960×540 → 1080p) and of fixed recovery's
// finishing resize.
//
// Why it is bit-exact. At 2× the pixel-centre map pos = (i+½)/2 − ½ puts
// output 2k at k − ¼ and output 2k+1 at k + ¼, so every tap pair is
// {¼, ¾} — 8192 and 24576 in Q15, both exact — and the border taps the
// generic kernel clamps to a copy equal the same {¼, ¾} lerp of a
// replicated sample. One generic horizontal lerp is therefore 2¹³·H with
// H = 3·near + far ("quarter units", ≤ 1020), and the Q30 vertical lerp
// plus 2²⁹ is 2²⁶·(3·Hnear + Hfar) + 2²⁹, whose >>30 is exactly
//
//	(3·Hnear + Hfar + 8) >> 4 = (9p + 3q + 3r + s + 8) >> 4.
//
// So the kernel lifts each LR row once into quarter units (a uint16 lane
// per output column) and forms every output pixel from two cached rows,
// four uint16 lanes per uint64: 3·1020 + 1020 + 8 = 4088 < 2¹⁶, so no
// lane ever carries into its neighbour.
//
// The fused form also runs SharpenBytesInto's unsharp mask on the way in:
// each sharpened LR row is built from a rolling window of three horizontal
// [1 2 1] rows and lifted at once, with the same integer arithmetic as
// SharpenBytesInto, so the composite is bit-identical to
// SharpenBytesInto followed by ResizeBilinearBytesInto without the LR
// sharpened plane or the sharpen's pooled intermediate.
//
// Work runs in bands of up2xBand LR rows, each with its own halo rows and
// its own slice of the scratch, so every band is a pure function of src
// and the output is the same for any pool size.
//
// The kernel's ends are byte planes or float planes. From a float plane
// each LR row is quantised with PixelByte into band scratch as the band
// first needs it, and each pair of output rows is blended into band
// scratch and widened to float32 while it is still in L1: the result is
// bit-identical to FromPlane, the byte kernel and ToPlane, without either
// whole-frame conversion outside the banded pass.

import (
	"encoding/binary"
	"fmt"

	"nerve/internal/par"
)

// up2xBand is the number of LR rows (twice as many output rows) per band.
// It is a constant so the band decomposition never depends on the pool.
const up2xBand = 16

// up2xGroups is the number of four-pixel groups in an LR row w pixels
// wide. A lifted row is stored per group x = 4g…4g+3 as two little-endian
// uint64 words of four uint16 lanes: the even output columns 2x
// (3·s[x] + s[x−1]) and then the odd ones 2x+1 (3·s[x] + s[x+1]). The
// blended even and odd bytes then interleave into eight output pixels with
// one shift and one or.
func up2xGroups(w int) int { return (w + 3) / 4 }

// up2xBandBytes is one band's scratch: three lifted rows and, when
// sharpening, three horizontal [1 2 1] rows (one four-lane word per group)
// plus one sharpened LR row; with float ends, three quantised LR rows and
// one pair of output rows on top.
func up2xBandBytes(w int, sharpen, float bool) int {
	n := 3 * 16 * up2xGroups(w)
	if sharpen {
		n += 3*8*up2xGroups(w) + w
	}
	if float {
		n += 3*w + 4*w
	}
	return n
}

func up2xBands(h int) int { return (h + up2xBand - 1) / up2xBand }

// is2x reports whether dst is exactly twice src on both axes.
func is2x(dst, src *BytePlane) bool {
	return dst.W == 2*src.W && dst.H == 2*src.H
}

// up2xIO holds the banded kernel's ends: byte planes (srcB, dstB) read and
// written in place, or float planes (srcF, dstF) converted a row at a
// time in band scratch. Exactly one pair is set.
type up2xIO struct {
	srcB, dstB *BytePlane
	srcF, dstF *Plane
	w, h       int // LR geometry
}

// SharpenUpscale2xBytesInto writes the exact 2× bilinear upscale of
// SharpenBytesInto(src, a256) into dst, which must be exactly 2·src.W ×
// 2·src.H and must not alias src. The result is bit-identical to the
// two-kernel composite; a256 ≤ 0 is the plain resize. scratch is the
// caller's row cache: it is grown when too small and returned, so a
// caller that keeps the returned slice runs allocation-free at a fixed
// geometry.
func SharpenUpscale2xBytesInto(dst, src *BytePlane, a256 int32, scratch []byte) []byte {
	if !is2x(dst, src) {
		panic(fmt.Sprintf("vmath: dst %dx%d is not 2× src %dx%d", dst.W, dst.H, src.W, src.H))
	}
	return sharpenUpscale2x(up2xIO{srcB: src, dstB: dst, w: src.W, h: src.H}, a256, scratch)
}

// SharpenUpscale2xInto is SharpenUpscale2xBytesInto between float planes:
// dst is bit-identical to ToPlane of the byte kernel's output on
// FromPlane(src), with the conversions done row by row inside the banded
// pass. dst must be exactly 2·src.W × 2·src.H and must not alias src;
// scratch is grown and returned as for the byte form.
func SharpenUpscale2xInto(dst, src *Plane, a256 int32, scratch []byte) []byte {
	if dst.W != 2*src.W || dst.H != 2*src.H {
		panic(fmt.Sprintf("vmath: dst %dx%d is not 2× src %dx%d", dst.W, dst.H, src.W, src.H))
	}
	return sharpenUpscale2x(up2xIO{srcF: src, dstF: dst, w: src.W, h: src.H}, a256, scratch)
}

func sharpenUpscale2x(io up2xIO, a256 int32, scratch []byte) []byte {
	if io.w == 0 || io.h == 0 {
		return scratch
	}
	if n := up2xBands(io.h) * up2xBandBytes(io.w, a256 > 0, io.srcF != nil); cap(scratch) < n {
		scratch = make([]byte, n)
	}
	upscale2x(io, a256, scratch)
	return scratch
}

// upscale2x runs the banded kernel; scratch must hold up2xBands(io.h)
// band scratches. Every scratch byte is written before it is read.
func upscale2x(io up2xIO, a256 int32, scratch []byte) {
	w, h := io.w, io.h
	lb := 16 * up2xGroups(w)
	per := up2xBandBytes(w, a256 > 0, io.srcF != nil)
	par.For(up2xBands(h), func(b int) {
		buf := scratch[b*per : (b+1)*per]
		rows := up2xRows{io: io, a256: a256, y: -1}
		rest := buf[3*lb:]
		if a256 > 0 {
			sb := 8 * up2xGroups(w)
			for i := range rows.h {
				rows.h[i] = rest[i*sb : (i+1)*sb]
			}
			rows.sharp = rest[3*sb : 3*sb+w]
			rest = rest[3*sb+w:]
		}
		// out0, out1 receive each pair of output rows: dst's own rows, or
		// scratch rows widened into dstF after the blend.
		var out0, out1 []byte
		if io.srcF != nil {
			for i := range rows.q {
				rows.q[i] = rest[i*w : (i+1)*w]
				rows.qy[i] = -1
			}
			out0, out1 = rest[3*w:5*w], rest[5*w:7*w]
		}
		k0 := b * up2xBand
		k1 := min(k0+up2xBand, h)
		// up, mid, down hold the lifted rows k−1, k, k+1 (border-clamped).
		up, mid, down := buf[:lb], buf[lb:2*lb], buf[2*lb:3*lb]
		lift2x(up, rows.row(max(k0-1, 0)))
		lift2x(mid, rows.row(k0))
		for k := k0; k < k1; k++ {
			lift2x(down, rows.row(min(k+1, h-1)))
			r0, r1 := 2*k*2*w, (2*k+1)*2*w
			if io.dstB != nil {
				out0, out1 = io.dstB.Pix[r0:r0+2*w], io.dstB.Pix[r1:r1+2*w]
			}
			blend2x(out0, out1, up, mid, down)
			if io.dstF != nil {
				widenRow(io.dstF.Pix[r0:r0+2*w], out0)
				widenRow(io.dstF.Pix[r1:r1+2*w], out1)
			}
			up, mid, down = mid, down, up
		}
	})
}

// up2xRows serves a band's LR rows, each call asking for the row of the
// previous call or the one after it: source rows as they are, or — when
// a256 > 0 — sharpened exactly as SharpenBytesInto would, from a rolling
// window of horizontal [1 2 1] rows.
type up2xRows struct {
	io    up2xIO
	a256  int32
	h     [3][]byte // [1 2 1] row sums of rows y−1, y, y+1 (clamped)
	sharp []byte    // sharpened row y
	y     int       // row held in sharp; −1 before the first
	q     [3][]byte // float source: quantised LR rows, row r in q[r%3]
	qy    [3]int    // the row each q holds; −1 when none
}

// src returns LR row y as bytes: the byte source's own row, or the float
// source's row quantised with PixelByte. A band only ever needs the rows
// of a window y−1…y+1, which the three q buffers hold without eviction,
// so each row is quantised once per band.
func (r *up2xRows) src(y int) []byte {
	w := r.io.w
	if r.io.srcB != nil {
		return r.io.srcB.Pix[y*w : y*w+w]
	}
	q := r.q[y%3]
	if r.qy[y%3] != y {
		for x, v := range r.io.srcF.Pix[y*w : y*w+w] {
			q[x] = PixelByte(v)
		}
		r.qy[y%3] = y
	}
	return q
}

func (r *up2xRows) row(y int) []byte {
	h := r.io.h
	srow := r.src(y)
	if r.a256 <= 0 {
		return srow
	}
	if y == r.y {
		return r.sharp
	}
	if r.y < 0 {
		hsum121(r.h[0], r.src(max(y-1, 0)))
		hsum121(r.h[1], srow)
	} else {
		r.h[0], r.h[1], r.h[2] = r.h[1], r.h[2], r.h[0]
	}
	hsum121(r.h[2], r.src(min(y+1, h-1)))
	r.y = y
	unsharpRow(r.sharp, srow, r.h[0], r.h[1], r.h[2], r.a256)
	return r.sharp
}

// widenRow writes the bytes of s into dst as float32 pixels.
func widenRow(dst []float32, s []byte) {
	dst = dst[:len(s)]
	for x, v := range s {
		dst[x] = float32(v)
	}
}

// quad returns the four LR pixels of group x = 4g…4g+3 as uint16 lanes (c)
// together with the same window shifted one pixel left (l) and right (r).
// It needs 1 ≤ x and x+5 ≤ len(s); quadEdge covers the row ends.
func quad(s []byte, x int) (l, c, r uint64) {
	v := uint64(binary.LittleEndian.Uint32(s[x : x+4]))
	v = (v | v<<16) & 0x0000ffff0000ffff
	c = (v | v<<8) & 0x00ff00ff00ff00ff
	return c<<16 | uint64(s[x-1]), c, c>>16 | uint64(s[x+4])<<48
}

// quadEdge is quad with replicate padding, for the groups at either row
// end.
func quadEdge(s []byte, x int) (l, c, r uint64) {
	w := len(s)
	for i := 0; i < 4; i++ {
		c |= uint64(s[min(x+i, w-1)]) << (16 * i)
		l |= uint64(s[min(max(x+i-1, 0), w-1)]) << (16 * i)
		r |= uint64(s[min(x+i+1, w-1)]) << (16 * i)
	}
	return l, c, r
}

// quadEnd is the first group, from group 1 on, whose window reaches past
// the end of a row w pixels wide: groups [1, quadEnd) take quad, group 0
// and the rest quadEdge.
func quadEnd(w int) int { return max((w-1)/4, 1) }

// hsum121 writes the horizontal [1 2 1] sums (≤ 1020, replicate padding)
// of s into dst, one four-lane word per group.
func hsum121(dst, s []byte) {
	end := quadEnd(len(s))
	for g := 0; g < up2xGroups(len(s)); g++ {
		var l, c, r uint64
		if g == 0 || g >= end {
			l, c, r = quadEdge(s, 4*g)
		} else {
			l, c, r = quad(s, 4*g)
		}
		binary.LittleEndian.PutUint64(dst[8*g:], l+2*c+r)
	}
}

// lift2x writes the horizontal 2× lift of LR row s into dst in the
// even/odd group layout: 3·s[x] + s[x−1], then 3·s[x] + s[x+1].
func lift2x(dst, s []byte) {
	end := quadEnd(len(s))
	for g := 0; g < up2xGroups(len(s)); g++ {
		var l, c, r uint64
		if g == 0 || g >= end {
			l, c, r = quadEdge(s, 4*g)
		} else {
			l, c, r = quad(s, 4*g)
		}
		binary.LittleEndian.PutUint64(dst[16*g:], 3*c+l)
		binary.LittleEndian.PutUint64(dst[16*g+8:], 3*c+r)
	}
}

// unsharpRow is SharpenBytesInto's combine for one row: the exact Q4
// binomial blur from three [1 2 1] rows (≤ 4080, summed four lanes at a
// time), then (2¹²·src + a256·(2⁴·src − blur16) + 2¹¹) >> 12, clamped.
func unsharpRow(dst, s, hm, h0, hp []byte, a256 int32) {
	w := len(s)
	for g := 0; 4*g < w; g++ {
		b := binary.LittleEndian.Uint64(hm[8*g:]) + 2*binary.LittleEndian.Uint64(h0[8*g:]) +
			binary.LittleEndian.Uint64(hp[8*g:])
		if 4*g+4 <= w {
			sg := s[4*g : 4*g+4]
			binary.LittleEndian.PutUint32(dst[4*g:], uint32(unsharp1(sg[0], b, a256))|
				uint32(unsharp1(sg[1], b>>16, a256))<<8|
				uint32(unsharp1(sg[2], b>>32, a256))<<16|
				uint32(unsharp1(sg[3], b>>48, a256))<<24)
			continue
		}
		for x := 4 * g; x < w; x++ { // the row's partial last group
			dst[x] = unsharp1(s[x], b>>(16*(x-4*g)), a256)
		}
	}
}

// unsharp1 combines one pixel p with its Q4 blur, the low 16 bits of b16.
func unsharp1(p uint8, b16 uint64, a256 int32) uint8 {
	p16 := int32(p) << 4
	v := (p16<<8 + a256*(p16-int32(uint16(b16))) + 1<<11) >> 12
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// blend2x writes the two output rows an LR row feeds: out0 from the lifted
// rows (mid, up) and out1 from (mid, down), as (3·near + far + 8) >> 4,
// eight output pixels per group.
func blend2x(out0, out1, up, mid, down []byte) {
	const (
		round = 0x0008000800080008
		lanes = 0x00ff00ff00ff00ff
	)
	n := len(out0)
	for g := 0; 8*g < n; g++ {
		m, u, d := mid[16*g:16*g+16], up[16*g:16*g+16], down[16*g:16*g+16]
		te := 3*binary.LittleEndian.Uint64(m) + round
		to := 3*binary.LittleEndian.Uint64(m[8:]) + round
		// Even columns land in the low byte of each lane, odd ones in the
		// high byte: the or is the interleave.
		a := (te+binary.LittleEndian.Uint64(u))>>4&lanes | ((to+binary.LittleEndian.Uint64(u[8:]))>>4&lanes)<<8
		b := (te+binary.LittleEndian.Uint64(d))>>4&lanes | ((to+binary.LittleEndian.Uint64(d[8:]))>>4&lanes)<<8
		if 8*g+8 <= n {
			binary.LittleEndian.PutUint64(out0[8*g:], a)
			binary.LittleEndian.PutUint64(out1[8*g:], b)
			continue
		}
		for x := 8 * g; x < n; x++ { // the row's partial last group
			out0[x] = uint8(a >> (8 * (x - 8*g)))
			out1[x] = uint8(b >> (8 * (x - 8*g)))
		}
	}
}
