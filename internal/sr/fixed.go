package sr

import (
	"fmt"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// FastUpscaler is the byte-plane SR head — the fixed-point tier of the
// enhancement stage. Where SuperResolver runs the full §5 model (bicubic
// base, flow-aligned temporal fusion, iterative back-projection, detail
// head) in float planes, FastUpscaler is the Q15 SWAR bilinear resize to
// display resolution, rounded to bytes once: at exactly 2× the row-cached
// kernel of vmath.Upscale2xInto. On codec-decoded frames no sharpen on
// top of it measured above plain bilinear (DESIGN.md §10), so in this
// reproduction the client's SR is a bilinear upsample, with no
// temporal state to warp.
//
// The head is stateless across frames: Reset only frees scratch, and the
// output depends only on the current LR frame.
type FastUpscaler struct {
	cfg     Config
	scratch []byte // owned row cache of the exact-2× kernel
}

// NewFast builds the byte-plane head for the configuration. Only OutW and
// OutH are consulted; the temporal and back-projection knobs have no
// fixed-point counterpart.
func NewFast(cfg Config) *FastUpscaler {
	cfg = cfg.withDefaults()
	return &FastUpscaler{cfg: cfg}
}

// Reset drops scratch state (there is no temporal state to clear).
func (s *FastUpscaler) Reset() {
	s.scratch = nil
}

// UpscaleInto upscales lr into dst, which must be OutW×OutH and not alias
// lr; every output pixel is written, so dst may come dirty from the pool.
// The result is bit-identical to ToPlane of vmath.ResizeBilinearBytesInto
// on FromPlane(lr). At exactly 2× the kernel reads and writes the float
// planes itself, quantising each LR row and widening each output row pair
// inside its banded pass, on a row cache the head owns and sizes on the
// first call: no byte plane, no whole-frame conversion and no pool
// traffic. Other ratios resize lr into a pooled byte plane
// (vmath.ResizeBilinearToBytesInto, which rounds each tap as it reads it)
// and convert back.
func (s *FastUpscaler) UpscaleInto(dst, lr *vmath.Plane) *vmath.Plane {
	defer telemetry.Start(telemetry.StageSR).Stop()
	if dst.W != s.cfg.OutW || dst.H != s.cfg.OutH {
		panic(fmt.Sprintf("sr: dst %dx%d != configured output %dx%d", dst.W, dst.H, s.cfg.OutW, s.cfg.OutH))
	}
	if dst.W == 2*lr.W && dst.H == 2*lr.H {
		s.scratch = vmath.Upscale2xInto(dst, lr, s.scratch)
		return dst
	}
	outB := vmath.GetBytes(s.cfg.OutW, s.cfg.OutH)
	vmath.ResizeBilinearToBytesInto(outB, lr).ToPlane(dst)
	vmath.PutBytes(outB)
	return dst
}

// Upscale is UpscaleInto on a pooled plane the caller owns, like
// SuperResolver's.
func (s *FastUpscaler) Upscale(lr *vmath.Plane) *vmath.Plane {
	return s.UpscaleInto(vmath.Get(s.cfg.OutW, s.cfg.OutH), lr)
}
