// Package sr implements the multi-resolution video super-resolution model
// of §5 and the baselines it is evaluated against.
//
// The paper's network shares one optical-flow alignment module across all
// upscaling factors and attaches small per-resolution convolution heads;
// this reproduction mirrors that structure with classical components:
//
//   - shared flow alignment: block-matching flow between consecutive LR
//     frames (internal/flow), reused for every ladder rung;
//   - temporal fusion: the previous HR output is warped along the
//     (resolution-scaled) flow and blended where the flow is confident,
//     accumulating detail across frames exactly like a recurrent SR cell;
//   - reconstruction: iterative back-projection enforces that the HR
//     estimate downsamples back to the observed LR frame — the classical
//     counterpart of learning the "gap between bilinear upsampling and the
//     ground truth" with a Charbonnier loss;
//   - per-resolution heads: a per-rung detail-boost strength, standing in
//     for the independent convolution layers per degradation pattern.
//
// The per-frame path is built on the destination-passing Into kernels and
// the plane pool of internal/vmath (ResizeBicubicInto, UnsharpMaskInto,
// warp.BackwardInto, …): a warmed-up resolver
// performs zero plane allocations per Upscale call. See DESIGN.md §9.
package sr

import (
	"fmt"

	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
	"nerve/internal/warp"
)

// Config parameterises a SuperResolver.
type Config struct {
	// OutW, OutH is the target (display) resolution.
	OutW, OutH int
	// BackProjectIters is the number of back-projection refinement steps
	// (default 3).
	BackProjectIters int
	// TemporalWeight scales how strongly the warped previous HR output is
	// fused in (default 0.45).
	TemporalWeight float32
}

func (c Config) withDefaults() Config {
	if c.OutW <= 0 || c.OutH <= 0 {
		panic(fmt.Sprintf("sr: invalid output size %dx%d", c.OutW, c.OutH))
	}
	if c.BackProjectIters <= 0 {
		c.BackProjectIters = 3
	}
	if c.TemporalWeight == 0 {
		c.TemporalWeight = 0.45
	}
	return c
}

// SuperResolver upscales a stream of LR frames to the configured output
// resolution, carrying temporal state between frames. It accepts any input
// resolution (the multi-resolution property of the paper's model): the
// shared flow module runs at whatever LR resolution arrives.
//
// Planes returned by Upscale are pool-backed and owned by the caller; the
// resolver copies what it needs into its own persistent state, so callers
// may vmath.Put a result once they are done with it.
type SuperResolver struct {
	cfg    Config
	prevLR *vmath.Plane // persistent pooled planes, refreshed in place
	prevHR *vmath.Plane
}

// New returns a resolver for the configuration.
func New(cfg Config) *SuperResolver {
	return &SuperResolver{cfg: cfg.withDefaults()}
}

// Reset drops temporal state (stream restart, scene cut, rung switch where
// continuity is broken deliberately).
func (s *SuperResolver) Reset() {
	vmath.Put(s.prevLR)
	vmath.Put(s.prevHR)
	s.prevLR, s.prevHR = nil, nil
}

// detailBoost derives the per-resolution head strength: lower-resolution
// inputs get stronger detail synthesis, as in the paper where lower rungs
// show larger SR gains.
func (s *SuperResolver) detailBoost(lrW int) float32 {
	factor := float32(s.cfg.OutW) / float32(lrW)
	b := 0.08 * (factor - 1)
	if b > 0.35 {
		b = 0.35
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Upscale enhances one LR frame into a pooled plane the caller owns.
func (s *SuperResolver) Upscale(lr *vmath.Plane) *vmath.Plane {
	return s.UpscaleInto(vmath.Get(s.cfg.OutW, s.cfg.OutH), lr)
}

// UpscaleInto enhances one LR frame into dst (OutW×OutH, not aliasing lr).
// Consecutive calls on consecutive frames exploit temporal fusion; a
// resolution change in the input stream is handled by resampling the
// temporal state (the rung switch the enhancement-aware ABR performs).
func (s *SuperResolver) UpscaleInto(dst, lr *vmath.Plane) *vmath.Plane {
	defer telemetry.Start(telemetry.StageSR).Stop()
	cfg := s.cfg
	out := vmath.ResizeBicubicInto(dst, lr)

	// Temporal fusion with the previous HR output, aligned by LR flow.
	// The blend lands in place on the bicubic base (nothing reads the
	// unfused base afterwards).
	if s.prevLR != nil && s.prevHR != nil {
		prevLR := s.prevLR
		var prevLRScratch *vmath.Plane
		if prevLR.W != lr.W || prevLR.H != lr.H {
			prevLRScratch = vmath.ResizeBilinearInto(vmath.Get(lr.W, lr.H), prevLR)
			prevLR = prevLRScratch
		}
		f := flow.Estimate(prevLR, lr, flow.Options{Levels: 2, Search: 3})
		vmath.Put(prevLRScratch)
		fHR := f.Resample(cfg.OutW, cfg.OutH)
		f.Release()
		warpedHR := vmath.Get(cfg.OutW, cfg.OutH)
		validHR := vmath.Get(cfg.OutW, cfg.OutH)
		warp.BackwardInto(warpedHR, validHR, s.prevHR, fHR, 0.3)
		tw := cfg.TemporalWeight
		// Per-pixel blend with no cross-pixel dependency: row bands run on
		// the shared pool without changing the result.
		par.ForRows(out.H, func(y0, y1 int) {
			for i := y0 * out.W; i < y1*out.W; i++ {
				w := tw * fHR.Conf[i] * validHR.Pix[i]
				out.Pix[i] += w * (warpedHR.Pix[i] - out.Pix[i])
			}
		})
		fHR.Release()
		vmath.Put(warpedHR)
		vmath.Put(validHR)
	}

	// Back-projection: force downsample-consistency with the observation.
	// The LR error and its upsampling reuse two pooled scratch planes
	// across iterations (Sub is elementwise, so the error lands in place
	// on the downsample).
	down := vmath.Get(lr.W, lr.H)
	errUp := vmath.Get(cfg.OutW, cfg.OutH)
	for it := 0; it < cfg.BackProjectIters; it++ {
		vmath.ResizeBilinearInto(down, out)
		vmath.Sub(down, lr, down)
		vmath.ResizeBilinearInto(errUp, down)
		out.AddScaled(errUp, 1.0)
	}

	// Per-resolution detail head: the analytic sharpening head.
	if b := s.detailBoost(lr.W); b > 0 {
		// In-place sharpen (UnsharpMaskInto materialises the blur first),
		// then re-anchor once.
		vmath.UnsharpMaskInto(out, out, 1.0, float64(b))
		vmath.ResizeBilinearInto(down, out)
		vmath.Sub(down, lr, down)
		vmath.ResizeBilinearInto(errUp, down)
		out.AddScaled(errUp, 1.0)
	}
	vmath.Put(down)
	vmath.Put(errUp)
	out.Clamp255()

	// Persistent temporal state lives in pooled planes refreshed in place
	// (re-fetched when the LR resolution changes at a rung switch).
	if s.prevLR == nil || s.prevLR.W != lr.W || s.prevLR.H != lr.H {
		vmath.Put(s.prevLR)
		s.prevLR = vmath.Get(lr.W, lr.H)
	}
	s.prevLR.CopyFrom(lr)
	if s.prevHR == nil {
		s.prevHR = vmath.Get(cfg.OutW, cfg.OutH)
	}
	s.prevHR.CopyFrom(out)
	return out
}

// UpscaleBilinear is the "Upsample" baseline from Fig. 10.
func UpscaleBilinear(lr *vmath.Plane, w, h int) *vmath.Plane {
	return vmath.ResizeBilinear(lr, w, h)
}

// UpscaleBicubic is the bicubic baseline from Fig. 11.
func UpscaleBicubic(lr *vmath.Plane, w, h int) *vmath.Plane {
	return vmath.ResizeBicubic(lr, w, h)
}
