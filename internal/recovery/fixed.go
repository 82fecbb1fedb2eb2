package recovery

import (
	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/vmath"
	"nerve/internal/warp"
)

// The warp stage of the recovery pipeline — work-resolution resampling of
// the previous frames, base flow estimation and the backward warp — is the
// area-bound part of Recover, and the part with an integer tier. These
// three helpers are the only tier switch: prepPrevWork materialises
// I_{t-1} at work resolution in the active representation, baseFlow
// estimates the extrapolation field from I_{t-2}, and warpPrev consumes
// the prepared plane to produce float warped/valid planes for the (always
// float) mismatch/inpaint/enhance branches. The scratch handoff lives on
// the Recoverer so the float tier still resizes I_{t-1} exactly once per
// frame.

// prepPrevWork resamples prev to work resolution into r.prevWork (float
// tier) or r.prevWorkB (fixed tier). warpPrev releases it.
func (r *Recoverer) prepPrevWork(prev *vmath.Plane) {
	cfg := r.cfg
	if !r.fixed {
		r.prevWork = vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), prev)
		return
	}
	r.prevWorkB = vmath.ResizeBilinearToBytesInto(vmath.GetBytes(cfg.WorkW, cfg.WorkH), prev)
}

// baseFlow estimates work-resolution flow I_{t-2} → I_{t-1}, or returns
// nil when I_{t-2} is unavailable. Must run between prepPrevWork and
// warpPrev. The fixed tier runs flow.EstimateBytes over byte pyramids with
// the SWAR SAD; options are identical, and both tiers return a float Field
// owned by the caller.
func (r *Recoverer) baseFlow(in Input) *flow.Field {
	if in.PrevPrev == nil {
		return nil
	}
	cfg := r.cfg
	opts := flow.Options{Levels: 3, Search: 3, ZeroBias: 0.4}
	if !r.fixed {
		prevPrevWork := vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), in.PrevPrev)
		f := flow.Estimate(prevPrevWork, r.prevWork, opts)
		vmath.Put(prevPrevWork)
		return f
	}
	// At large work resolutions the fixed tier estimates flow at half
	// resolution and resamples the field up — block flow is already
	// piecewise-constant, so halving the SAD area costs almost nothing in
	// accuracy but 4× in time. Small frames (and the parity tests' 160×96
	// geometry) keep full resolution.
	fw, fh := cfg.WorkW, cfg.WorkH
	if cfg.WorkH >= 200 {
		fw, fh = cfg.WorkW/2, cfg.WorkH/2
	}
	ppFlowB := vmath.ResizeBilinearToBytesInto(vmath.GetBytes(fw, fh), in.PrevPrev)
	prevFlowB := r.prevWorkB
	if fw != cfg.WorkW || fh != cfg.WorkH {
		prevFlowB = vmath.GetBytes(fw, fh)
		vmath.ResizeBilinearBytesInto(prevFlowB, r.prevWorkB)
	}
	f := flow.EstimateBytes(ppFlowB, prevFlowB, opts)
	vmath.PutBytes(ppFlowB)
	if prevFlowB != r.prevWorkB {
		vmath.PutBytes(prevFlowB)
		up := f.Resample(cfg.WorkW, cfg.WorkH)
		f.Release()
		f = up
	}
	return f
}

// resizeOut lifts the finished work-resolution frame to output resolution
// (float tier; the fixed tier's finishFixed embeds the byte resize).
func (r *Recoverer) resizeOut(work *vmath.Plane) *vmath.Plane {
	return vmath.ResizeBilinearInto(vmath.Get(r.cfg.OutW, r.cfg.OutH), work)
}

// finishFixed is the fixed tier's enhance + output resize, fused so the
// frame is rounded to bytes exactly once: history blend and EMA update in
// Q8 against a byte-plane H, then the Q15 SWAR upscale to output
// resolution. Unlike the float tier's enhance it does not sharpen: on the
// byte tier a sharpen amplified coding error and measured below the plain
// resize (DESIGN.md §10).
func (r *Recoverer) finishFixed(img, valid *vmath.Plane) *vmath.Plane {
	cfg := r.cfg
	imgB := vmath.GetBytes(img.W, img.H).FromPlane(img)
	if r.historyB == nil || r.historyB.W != imgB.W || r.historyB.H != imgB.H {
		// First frame at this geometry: no blend, H starts as the frame.
		vmath.PutBytes(r.historyB)
		r.historyB = vmath.GetBytes(imgB.W, imgB.H)
		copy(r.historyB.Pix, imgB.Pix)
	} else {
		// One pass per pixel: blend H in where the warp had no source,
		// then H ← EMA of recovered frames (0.6 toward the current
		// frame, like the float tier), held as a persistent pooled byte
		// plane.
		const (
			hw  = 38  // round(historyWeight · 256)
			ema = 154 // round(0.6 · 256)
		)
		hist := r.historyB.Pix
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

// warpPrev backward-warps the prepared previous frame along f and releases
// the prepared scratch. Both tiers return float planes (owned by the
// caller) with identical semantics: warped pixels plus a 0/1 validity
// mask. The fixed tier's valid mask is bit-identical to the float tier's
// for the same field (the in-bounds test runs on the float positions); the
// warped pixels differ by ≤1 LSB.
func (r *Recoverer) warpPrev(f *flow.Field) (warped, valid *vmath.Plane) {
	cfg := r.cfg
	warped = vmath.Get(cfg.WorkW, cfg.WorkH)
	valid = vmath.Get(cfg.WorkW, cfg.WorkH)
	if !r.fixed {
		warp.BackwardInto(warped, valid, r.prevWork, f, confThreshold)
		vmath.Put(r.prevWork)
		r.prevWork = nil
		return warped, valid
	}
	warpedB := vmath.GetBytes(cfg.WorkW, cfg.WorkH)
	validB := vmath.GetBytes(cfg.WorkW, cfg.WorkH)
	warp.BackwardBytesInto(warpedB, validB, r.prevWorkB, f, confThreshold)
	vmath.PutBytes(r.prevWorkB)
	r.prevWorkB = nil
	warpedB.ToPlane(warped)
	validB.ToPlane(valid)
	vmath.PutBytes(warpedB)
	vmath.PutBytes(validB)
	return warped, valid
}
