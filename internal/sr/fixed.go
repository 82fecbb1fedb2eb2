package sr

import (
	"fmt"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// FastUpscaler is the byte-plane SR head — the fixed-point tier of the
// enhancement stage. Where SuperResolver runs the full §5 model (bicubic
// base, flow-aligned temporal fusion, iterative back-projection, detail
// head) in float planes, FastUpscaler keeps the whole path in uint8/int16:
// an integer binomial unsharp sharpens the LR frame at LR cost, then the
// Q15 SWAR bilinear resize lifts it to display resolution — at exactly 2×
// both run as one row-cached pass. That is the deadline tier: detail
// synthesis comparable to the analytic head, with no temporal state to
// warp — which is what lets a 1080p decode→recover→SR frame fit the 33 ms
// budget on one core (DESIGN.md §10).
//
// The head is stateless across frames (no fusion history): Reset only
// frees scratch, and the output depends only on the current LR frame.
type FastUpscaler struct {
	cfg     Config
	sharp   *vmath.BytePlane // persistent pooled LR scratch, non-2× geometries
	scratch []byte           // owned row cache of the fused exact-2× kernel
}

// NewFast builds the byte-plane head for the configuration. Only OutW,
// OutH and DetailBoost are consulted; the temporal and back-projection
// knobs have no fixed-point counterpart.
func NewFast(cfg Config) *FastUpscaler {
	cfg = cfg.withDefaults()
	return &FastUpscaler{cfg: cfg}
}

// Reset drops scratch state (there is no temporal state to clear).
func (s *FastUpscaler) Reset() {
	vmath.PutBytes(s.sharp)
	s.sharp = nil
	s.scratch = nil
}

// boost256 derives the Q8 sharpening amount from the upscale factor with
// exactly SuperResolver.detailBoost's formula, rounded once.
func (s *FastUpscaler) boost256(lrW int) int32 {
	var b float32
	if s.cfg.DetailBoost != 0 {
		b = s.cfg.DetailBoost
	} else {
		factor := float32(s.cfg.OutW) / float32(lrW)
		b = 0.08 * (factor - 1)
		if b > 0.35 {
			b = 0.35
		}
		if b < 0 {
			b = 0
		}
	}
	return int32(b*256 + 0.5)
}

// UpscaleBytesInto enhances one LR byte frame into dst, which must be
// OutW×OutH and not alias lr. Every output pixel is written, so dst may
// come dirty from the pool. At exactly 2× the sharpen runs inside the
// resize (vmath.SharpenUpscale2xBytesInto) on a row cache the head owns,
// sized on the first call, so a warmed-up head touches no pool at all;
// other ratios sharpen into a persistent pooled LR plane and resize.
func (s *FastUpscaler) UpscaleBytesInto(dst, lr *vmath.BytePlane) *vmath.BytePlane {
	defer telemetry.Start(telemetry.StageSR).Stop()
	if dst.W != s.cfg.OutW || dst.H != s.cfg.OutH {
		panic(fmt.Sprintf("sr: dst %dx%d != configured output %dx%d", dst.W, dst.H, s.cfg.OutW, s.cfg.OutH))
	}
	a256 := s.boost256(lr.W)
	if lr.W == s.cfg.OutW && lr.H == s.cfg.OutH {
		// Same geometry: the head reduces to the sharpen alone.
		vmath.SharpenBytesInto(dst, lr, a256)
		return dst
	}
	if dst.W == 2*lr.W && dst.H == 2*lr.H {
		s.scratch = vmath.SharpenUpscale2xBytesInto(dst, lr, a256, s.scratch)
		return dst
	}
	if s.sharp == nil || s.sharp.W != lr.W || s.sharp.H != lr.H {
		vmath.PutBytes(s.sharp)
		s.sharp = vmath.GetBytes(lr.W, lr.H)
	}
	// Sharpen at LR cost (a quarter of the output pixels at 2×), then one
	// SWAR bilinear pass to display resolution.
	vmath.SharpenBytesInto(s.sharp, lr, a256)
	vmath.ResizeBilinearBytesInto(dst, s.sharp)
	return dst
}

// UpscaleInto is the float-plane form of the head, writing into dst
// (OutW×OutH, not aliasing lr; it may come dirty from the pool). At
// exactly 2× the fused kernel reads and writes the float planes itself
// (vmath.SharpenUpscale2xInto), quantising each LR row and widening each
// output row pair inside its banded pass, on the same owned row cache as
// UpscaleBytesInto: no byte plane, no whole-frame conversion and no pool
// traffic. Other ratios shadow lr into a pooled byte plane, run
// UpscaleBytesInto and convert back.
func (s *FastUpscaler) UpscaleInto(dst, lr *vmath.Plane) *vmath.Plane {
	if dst.W == 2*lr.W && dst.H == 2*lr.H {
		defer telemetry.Start(telemetry.StageSR).Stop()
		s.scratch = vmath.SharpenUpscale2xInto(dst, lr, s.boost256(lr.W), s.scratch)
		return dst
	}
	lrB := vmath.GetBytes(lr.W, lr.H).FromPlane(lr)
	outB := vmath.GetBytes(s.cfg.OutW, s.cfg.OutH)
	s.UpscaleBytesInto(outB, lrB).ToPlane(dst)
	vmath.PutBytes(lrB)
	vmath.PutBytes(outB)
	return dst
}

// Upscale is UpscaleInto on a pooled plane the caller owns, like
// SuperResolver's.
func (s *FastUpscaler) Upscale(lr *vmath.Plane) *vmath.Plane {
	return s.UpscaleInto(vmath.Get(s.cfg.OutW, s.cfg.OutH), lr)
}
