// Package warp implements backward warping with bilinear sampling — the
// motion-compensation step of both the recovery and SR pipelines. On the
// paper's iPhone deployment this is the custom Metal grid-sample layer run
// at 270p (§7); here the cost model in internal/device charges the
// corresponding latencies.
//
// BackwardInto (float planes) and BackwardBytesInto (byte planes) are
// destination-passing: the per-frame pipeline hands them pooled planes
// (vmath.Get/Put). In both the destinations must not alias src.
package warp

import (
	"fmt"

	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// BackwardInto warps src by the flow field into out, and writes the hole
// mask into valid: out(x, y) = src(x + U, y + V). The field and both
// destinations must match src's dimensions; out and valid must not alias
// src. Every pixel of both destinations is written (valid gets an explicit
// 0 or 1), so they may come dirty from the pool. The valid mask is 1 where
// the sample fell inside src and the flow confidence is adequate, and 0
// where the warp had no reliable source (out of bounds or low confidence) —
// the regions the inpainting branch must fill.
func BackwardInto(out, valid *vmath.Plane, src *vmath.Plane, f *flow.Field, confThreshold float32) {
	defer telemetry.Start(telemetry.StageWarp).Stop()
	if src.W != f.W || src.H != f.H {
		panic(fmt.Sprintf("warp: plane %dx%d vs field %dx%d", src.W, src.H, f.W, f.H))
	}
	if out.W != src.W || out.H != src.H || valid.W != src.W || valid.H != src.H {
		panic(fmt.Sprintf("warp: dst %dx%d/%dx%d vs src %dx%d", out.W, out.H, valid.W, valid.H, src.W, src.H))
	}
	// Each output pixel reads only src and the flow field, so row bands run
	// on the pool with pool-size-independent results.
	par.ForRows(src.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < src.W; x++ {
				i := y*src.W + x
				sx := float32(x) + f.U[i]
				sy := float32(y) + f.V[i]
				out.Pix[i] = src.SampleBilinear(sx, sy)
				inBounds := sx >= -0.5 && sy >= -0.5 && sx <= float32(src.W)-0.5 && sy <= float32(src.H)-0.5
				if inBounds && f.Conf[i] >= confThreshold {
					valid.Pix[i] = 1
				} else {
					valid.Pix[i] = 0
				}
			}
		}
	})
}
