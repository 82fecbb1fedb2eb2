package recovery

import (
	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/vmath"
	"nerve/internal/warp"
)

// The warp stage of the recovery pipeline — work-resolution resampling of
// the previous frames, base flow estimation and the backward warp — is the
// area-bound part of Recover, and it runs on byte planes: prepPrevWork
// resamples I_{t-1} to a work-resolution byte plane, baseFlow estimates the
// extrapolation field from I_{t-2} with the SWAR SAD, and warpPrev consumes
// the prepared plane to produce float warped/valid planes for the float
// mismatch and inpaint branches. finish rounds the filled frame back to
// bytes once for the history blend and the output resize. The scratch
// handoff lives on the Recoverer so I_{t-1} is resized exactly once per
// frame.

// prepPrevWork resamples prev to work resolution into r.prevWork.
// warpPrev releases it.
func (r *Recoverer) prepPrevWork(prev *vmath.Plane) {
	cfg := r.cfg
	r.prevWork = vmath.ResizeBilinearToBytesInto(vmath.GetBytes(cfg.WorkW, cfg.WorkH), prev)
}

// baseFlow estimates work-resolution flow I_{t-2} → I_{t-1} with
// flow.EstimateBytes over byte pyramids, or returns nil when I_{t-2} is
// unavailable. Must run between prepPrevWork and warpPrev. The field is
// owned by the caller.
func (r *Recoverer) baseFlow(in Input) *flow.Field {
	if in.PrevPrev == nil {
		return nil
	}
	cfg := r.cfg
	opts := flow.Options{Levels: 3, Search: 3, ZeroBias: 0.4}
	// At large work resolutions flow is estimated at half resolution and
	// the field resampled up — block flow is already piecewise-constant,
	// so halving the SAD area costs almost nothing in accuracy but 4× in
	// time. Small frames (and the tests' 160×96 geometry) keep full
	// resolution.
	fw, fh := cfg.WorkW, cfg.WorkH
	if cfg.WorkH >= 200 {
		fw, fh = cfg.WorkW/2, cfg.WorkH/2
	}
	ppFlow := vmath.ResizeBilinearToBytesInto(vmath.GetBytes(fw, fh), in.PrevPrev)
	prevFlow := r.prevWork
	if fw != cfg.WorkW || fh != cfg.WorkH {
		prevFlow = vmath.GetBytes(fw, fh)
		vmath.ResizeBilinearBytesInto(prevFlow, r.prevWork)
	}
	f := flow.EstimateBytes(ppFlow, prevFlow, opts)
	vmath.PutBytes(ppFlow)
	if prevFlow != r.prevWork {
		vmath.PutBytes(prevFlow)
		up := f.Resample(cfg.WorkW, cfg.WorkH)
		f.Release()
		f = up
	}
	return f
}

// finish is the enhance branch and the output resize, fused so the frame
// is rounded to bytes exactly once: history blend and EMA update in Q8
// against a byte-plane H, then the Q15 SWAR upscale to output resolution.
// It does not sharpen: on bytes a sharpen amplified coding error and
// measured below the plain resize (DESIGN.md §10).
func (r *Recoverer) finish(img, valid *vmath.Plane) *vmath.Plane {
	cfg := r.cfg
	imgB := vmath.GetBytes(img.W, img.H).FromPlane(img)
	if r.history == nil || r.history.W != imgB.W || r.history.H != imgB.H {
		// First frame at this geometry: no blend, H starts as the frame.
		vmath.PutBytes(r.history)
		r.history = vmath.GetBytes(imgB.W, imgB.H)
		copy(r.history.Pix, imgB.Pix)
	} else {
		// One pass per pixel: blend H in (weight 0.15) where the warp had
		// no source, then H ← EMA of recovered frames (0.6 toward the
		// current frame), held as a persistent pooled byte plane.
		const (
			hw  = 38  // round(0.15 · 256)
			ema = 154 // round(0.6 · 256)
		)
		hist := r.history.Pix
		par.ForSpans(len(imgB.Pix), pixelSpan, func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				h := int32(hist[i])
				b := imgB.Pix[i]
				if valid.Pix[i] < 0.5 {
					v := int32(b)
					b = uint8(v + (hw*(h-v)+128)>>8)
					imgB.Pix[i] = b
				}
				hist[i] = uint8(h + (ema*(int32(b)-h)+128)>>8)
			}
		})
	}
	res := vmath.Get(cfg.OutW, cfg.OutH)
	if cfg.OutW == imgB.W && cfg.OutH == imgB.H {
		imgB.ToPlane(res)
		vmath.PutBytes(imgB)
		return res
	}
	outB := vmath.GetBytes(cfg.OutW, cfg.OutH)
	vmath.ResizeBilinearBytesInto(outB, imgB)
	vmath.PutBytes(imgB)
	outB.ToPlane(res)
	vmath.PutBytes(outB)
	return res
}

// warpPrev backward-warps the prepared previous frame along f with the
// Q15 SWAR warp and releases the prepared scratch. It returns float planes
// owned by the caller: warped pixels plus a 0/1 validity mask.
func (r *Recoverer) warpPrev(f *flow.Field) (warped, valid *vmath.Plane) {
	cfg := r.cfg
	warped = vmath.Get(cfg.WorkW, cfg.WorkH)
	valid = vmath.Get(cfg.WorkW, cfg.WorkH)
	warpedB := vmath.GetBytes(cfg.WorkW, cfg.WorkH)
	validB := vmath.GetBytes(cfg.WorkW, cfg.WorkH)
	warp.BackwardBytesInto(warpedB, validB, r.prevWork, f, confThreshold)
	vmath.PutBytes(r.prevWork)
	r.prevWork = nil
	warpedB.ToPlane(warped)
	validB.ToPlane(valid)
	vmath.PutBytes(warpedB)
	vmath.PutBytes(validB)
	return warped, valid
}
