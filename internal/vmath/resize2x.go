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
// Work runs in bands of up2xBand LR rows, each with its own halo rows and
// its own slice of the scratch, so every band is a pure function of src
// and the output is the same for any pool size.
//
// The kernel's ends are byte planes or float planes. From a float plane
// each LR row is quantised with PixelByte into band scratch just before it
// is lifted, and each pair of output rows is blended into band scratch and
// widened to float32 while it is still in L1: the result is bit-identical
// to FromPlane, the byte kernel and ToPlane, without either whole-frame
// conversion outside the banded pass.

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

// up2xBandBytes is one band's scratch: three lifted rows and, with float
// ends, one quantised LR row and one pair of output rows on top.
func up2xBandBytes(w int, float bool) int {
	n := 3 * 16 * up2xGroups(w)
	if float {
		n += w + 4*w
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

// Upscale2xInto writes the exact 2× bilinear upscale of src into dst
// between float planes: dst is bit-identical to ToPlane of
// ResizeBilinearBytesInto's output on FromPlane(src), with the conversions
// done row by row inside the banded pass. dst must be exactly 2·src.W ×
// 2·src.H and must not alias src. scratch is the caller's row cache: it is
// grown when too small and returned, so a caller that keeps the returned
// slice runs allocation-free at a fixed geometry.
func Upscale2xInto(dst, src *Plane, scratch []byte) []byte {
	if dst.W != 2*src.W || dst.H != 2*src.H {
		panic(fmt.Sprintf("vmath: dst %dx%d is not 2× src %dx%d", dst.W, dst.H, src.W, src.H))
	}
	if src.W == 0 || src.H == 0 {
		return scratch
	}
	if n := up2xBands(src.H) * up2xBandBytes(src.W, true); cap(scratch) < n {
		scratch = make([]byte, n)
	}
	upscale2x(up2xIO{srcF: src, dstF: dst, w: src.W, h: src.H}, scratch)
	return scratch
}

// upscale2x runs the banded kernel; scratch must hold up2xBands(io.h)
// band scratches. Every scratch byte is written before it is read.
func upscale2x(io up2xIO, scratch []byte) {
	w, h := io.w, io.h
	lb := 16 * up2xGroups(w)
	per := up2xBandBytes(w, io.srcF != nil)
	par.For(up2xBands(h), func(b int) {
		buf := scratch[b*per : (b+1)*per]
		// q receives each quantised float LR row; out0, out1 receive each
		// pair of output rows: dst's own rows, or scratch rows widened
		// into dstF after the blend.
		var q, out0, out1 []byte
		if io.srcF != nil {
			rest := buf[3*lb:]
			q, out0, out1 = rest[:w], rest[w:3*w], rest[3*w:5*w]
		}
		k0 := b * up2xBand
		k1 := min(k0+up2xBand, h)
		// up, mid, down hold the lifted rows k−1, k, k+1 (border-clamped).
		up, mid, down := buf[:lb], buf[lb:2*lb], buf[2*lb:3*lb]
		lift2x(up, up2xRow(io, q, max(k0-1, 0)))
		lift2x(mid, up2xRow(io, q, k0))
		for k := k0; k < k1; k++ {
			lift2x(down, up2xRow(io, q, min(k+1, h-1)))
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

// up2xRow returns LR row y as bytes: the byte source's own row, or the
// float source's row quantised with PixelByte into q.
func up2xRow(io up2xIO, q []byte, y int) []byte {
	w := io.w
	if io.srcB != nil {
		return io.srcB.Pix[y*w : y*w+w]
	}
	for x, v := range io.srcF.Pix[y*w : y*w+w] {
		q[x] = PixelByte(v)
	}
	return q
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
