package flow

import (
	"encoding/binary"
	"fmt"
	"math"

	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// EstimateBytes is the fixed-point tier of Estimate: the same
// coarse-to-fine pyramidal block matching, run on byte planes with an
// integer SWAR SAD (eight pixels per uint64 word, vmath.SAD8) instead of
// float absolute differences. It exists for the recovery path's frame
// deadline — work-resolution flow is the dominant cost of a recovered
// frame, and the byte matcher removes both the float conversion of the
// inputs and the per-pixel float arithmetic of the inner SAD loop.
//
// The search structure (pyramid construction ordering, candidate order,
// zero-bias regularisation, confidence mapping) matches Estimate exactly;
// only the pixel representation differs. Byte pyramids are built with an
// exact rounded 2×2 box filter, so levels differ from the float pyramid
// by at most the rounding of each sample — fields from the two matchers
// agree to block granularity on natural content but are not bit-identical
// by contract. The returned Field is float, pool-backed, and identical in
// shape/ownership to Estimate's.
func EstimateBytes(prev, cur *vmath.BytePlane, opts Options) *Field {
	defer telemetry.Start(telemetry.StageFlow).Stop()
	if prev.W != cur.W || prev.H != cur.H {
		panic(fmt.Sprintf("flow: size mismatch %dx%d vs %dx%d", prev.W, prev.H, cur.W, cur.H))
	}
	o := opts.withDefaults()

	levels := o.Levels
	for l := levels - 1; l > 0; l-- {
		if cur.W>>l < o.Block || cur.H>>l < o.Block {
			levels = l
		}
	}
	if levels < 1 {
		levels = 1
	}
	if levels > maxPyramidLevels {
		levels = maxPyramidLevels
	}
	var pPrev, pCur [maxPyramidLevels]*vmath.BytePlane
	pPrev[0], pCur[0] = prev, cur
	for l := 1; l < levels; l++ {
		pPrev[l] = downsampleBytes2x2(pPrev[l-1])
		pCur[l] = downsampleBytes2x2(pCur[l-1])
	}

	var coarse *blockField
	for l := levels - 1; l >= 0; l-- {
		finer := matchLevelBytes(pPrev[l], pCur[l], coarse, o)
		coarse.release()
		coarse = finer
	}
	out := coarse.dense(cur.W, cur.H)
	coarse.release()
	for l := 1; l < levels; l++ {
		vmath.PutBytes(pPrev[l])
		vmath.PutBytes(pCur[l])
	}
	return out
}

// downsampleBytes2x2 box-averages p by 2 in each dimension with exact
// round-to-nearest integer arithmetic ((a+b+c+d+2)>>2) into a pooled byte
// plane.
func downsampleBytes2x2(p *vmath.BytePlane) *vmath.BytePlane {
	w, h := p.W/2, p.H/2
	dst := vmath.GetBytes(w, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			r0 := p.Pix[(2*y)*p.W:]
			r1 := p.Pix[(2*y+1)*p.W:]
			out := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				s := uint32(r0[2*x]) + uint32(r0[2*x+1]) + uint32(r1[2*x]) + uint32(r1[2*x+1])
				out[x] = uint8((s + 2) >> 2)
			}
		}
	})
	return dst
}

// matchLevelBytes is matchLevel on byte planes: identical block grid,
// seeding, confidence math and row banding, integer SAD inside.
func matchLevelBytes(prev, cur *vmath.BytePlane, coarse *blockField, o Options) *blockField {
	out := newBlockField(cur.W, cur.H, o.Block)
	par.For(out.bh, func(by int) {
		for bx := 0; bx < out.bw; bx++ {
			seedU, seedV := coarse.seed(bx, by, out)
			u, v, sad := searchBlockBytes(prev, cur, bx*o.Block, by*o.Block, seedU, seedV, o)
			out.set(by*out.bw+bx, u, v, sad)
		}
	})
	return out
}

// searchBlockBytes mirrors searchBlock: exhaustive radius-o.Search scan
// around the seed with the same zero-bias regularisation.
func searchBlockBytes(prev, cur *vmath.BytePlane, x0, y0, seedU, seedV int, o Options) (u, v int, best float64) {
	best = math.Inf(1)
	r := o.Search
	block := o.Block
	biasScale := o.ZeroBias * float64(block*block) / 64
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			cu := seedU + dx
			cv := seedV + dy
			sad := blockSADBytes(prev, cur, x0, y0, cu, cv, block, best)
			sad += biasScale * (math.Abs(float64(cu)) + math.Abs(float64(cv)))
			if sad < best {
				best = sad
				u, v = cu, cv
			}
		}
	}
	return u, v, best
}

// blockSADBytes sums |cur − prev(shifted)| over the (clipped) block with
// the same row-wise early exit as the float blockSAD. Interior 8-wide rows
// take the SWAR fast path — one uint64 load per plane per row and a single
// vmath.SAD8; clipped or border rows fall back to the scalar loop with
// replicate clamping. Both paths compute identical sums (SAD8 is
// bit-exact, fixed_test.go), so candidate ordering never depends on which
// path ran.
func blockSADBytes(prev, cur *vmath.BytePlane, x0, y0, u, v, block int, limit float64) float64 {
	var sad int64
	w, h := cur.W, cur.H
	fast8 := block == 8 && x0+8 <= w && x0+u >= 0 && x0+u+8 <= w
	for y := 0; y < block; y++ {
		py := y0 + y
		if py >= h {
			break
		}
		sy := py + v
		if fast8 && sy >= 0 && sy < h {
			a := binary.LittleEndian.Uint64(cur.Pix[py*w+x0:])
			b := binary.LittleEndian.Uint64(prev.Pix[sy*w+x0+u:])
			sad += int64(vmath.SAD8(a, b))
		} else {
			for x := 0; x < block; x++ {
				px := x0 + x
				if px >= w {
					break
				}
				d := int32(cur.Pix[py*w+px]) - int32(prev.AtClamp(px+u, py+v))
				if d < 0 {
					d = -d
				}
				sad += int64(d)
			}
		}
		if float64(sad) >= limit {
			return float64(sad)
		}
	}
	return float64(sad)
}
