// Package recovery implements the hint-assisted video recovery model of §4:
// given the previous frame, the binary point codes of the previous and
// current frames (delivered over the reliable side channel), and optionally
// the partially decoded current frame, it reconstructs the current frame.
//
// The pipeline mirrors the paper's three branches:
//
//  1. warp — optical flow between the consecutive binary point codes is
//     upsampled to the (reduced, 270p-style) working resolution and the
//     previous frame is backward-warped along it;
//  2. inpaint — regions the warp could not source (new content entering
//     the scene, occlusions, low-confidence flow) are filled by an
//     edge-guided diffusion steered by the current code, which tells the
//     client where contours of the unseen content lie;
//  3. enhance — the filled frame is blended with the decoder-side
//     temporal history state H where the warp had no source, on bytes,
//     and resized to output resolution (finish). It is not sharpened.
//
// Two ablations used throughout the evaluation are provided: prediction
// without the code (flow extrapolated from the two previous frames, as in
// classical video prediction) and plain frame reuse.
//
// The area-bound stages (work-resolution resampling, block flow, the
// backward warp, the finish) run on byte planes; the mismatch and inpaint
// branches run on float planes at work resolution. All per-frame
// intermediates live in the vmath plane pool, so a warmed-up
// Recoverer performs no plane allocations. Planes returned by Recover and
// Reuse are pool-backed and owned by the caller.
package recovery

import (
	"fmt"

	"nerve/internal/edgecode"
	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// Config parameterises a Recoverer.
type Config struct {
	// OutW, OutH is the display resolution of recovered frames.
	OutW, OutH int
	// WorkW, WorkH is the warping/inpainting resolution (the paper warps
	// at 270p to fit the mobile latency budget). Zero selects OutW/OutH
	// scaled down to a height of at most 270.
	WorkW, WorkH int
}

func (c Config) withDefaults() Config {
	if c.OutW <= 0 || c.OutH <= 0 {
		panic(fmt.Sprintf("recovery: invalid output size %dx%d", c.OutW, c.OutH))
	}
	if c.WorkW <= 0 || c.WorkH <= 0 {
		if c.OutH > 270 {
			scale := 270.0 / float64(c.OutH)
			c.WorkH = 270
			c.WorkW = int(float64(c.OutW)*scale+0.5) &^ 1
		} else {
			c.WorkW, c.WorkH = c.OutW, c.OutH
		}
	}
	return c
}

const (
	// confThreshold is the flow confidence below which warped pixels are
	// treated as holes.
	confThreshold = 0.35
	// inpaintIters is the number of diffusion iterations.
	inpaintIters = 40
	// pixelSpan is the number of pixels per pool task in the per-pixel
	// passes: a constant, so span boundaries depend only on the plane
	// size.
	pixelSpan = 8192
	// holeSpan is the number of holes per pool task in an inpaint
	// iteration, about 15 µs of work on x86-64: frames with a few
	// thousand holes run an iteration in one or two tasks, so a task is
	// still worth its dispatch.
	holeSpan = 4096
)

// Input bundles everything available to recover the current frame.
type Input struct {
	// Prev is the previously displayed frame I_{t-1} at output resolution
	// (required).
	Prev *vmath.Plane
	// PrevPrev is I_{t-2}; used only when codes are absent (extrapolation
	// mode) — the classical video-prediction ablation.
	PrevPrev *vmath.Plane
	// PrevCode and CurCode are the binary point codes C_{t-1} and C_t.
	// When both are present the recovery runs in full (hinted) mode.
	PrevCode, CurCode *edgecode.Code
	// Part is the partially decoded current frame (Ipart) and PartMask
	// marks its valid pixels with 1; both nil for a complete loss.
	Part, PartMask *vmath.Plane
}

// Recoverer runs the recovery model. It keeps the temporal history state H
// across calls; feed frames in playout order and Reset at scene changes or
// stream restarts.
type Recoverer struct {
	cfg     Config
	history *vmath.BytePlane // H at work resolution; see finish

	// Per-frame scratch reused across calls (never escapes).
	holes   []inpaintHole
	holeOff []int // per-span hole counts, then offsets (inpaint)
	mismExt *edgecode.Extractor
	mismA   []bool
	mismB   []bool
	mismC   []bool

	// prevWork holds I_{t-1} at work resolution between prepPrevWork and
	// warpPrev within one Recover call (see fixed.go).
	prevWork *vmath.BytePlane
}

// New returns a Recoverer for the configuration.
func New(cfg Config) *Recoverer {
	return &Recoverer{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration (defaults applied).
func (r *Recoverer) Config() Config { return r.cfg }

// SetFixedPoint does nothing: every call runs on the byte path.
//
// Deprecated: kept only because perfbench's layer replay calls it (always
// with true); ROADMAP.md item 1 deletes that call and this method.
func (r *Recoverer) SetFixedPoint(bool) {}

// Reset clears the temporal history state.
func (r *Recoverer) Reset() {
	vmath.PutBytes(r.history)
	r.history = nil
}

// Reuse is the baseline that simply replays the previous frame. The result
// is a fresh pool-backed plane owned by the caller (never aliases prev).
func (r *Recoverer) Reuse(prev *vmath.Plane) *vmath.Plane {
	return vmath.ResizeBilinearInto(vmath.Get(r.cfg.OutW, r.cfg.OutH), prev)
}

// Recover reconstructs the current frame from in. Mode selection:
// both codes present → hinted recovery; PrevPrev present → extrapolated
// prediction (no-code ablation); otherwise frame reuse. If Part/PartMask
// are set, received regions override the prediction (partial concealment).
// The returned plane is pool-backed and owned by the caller; the Recoverer
// never retains a reference to it. Its pixels lie in [0, 255] whatever
// the range of Prev and Part: each branch clamps what it makes, and the
// finish makes bytes, so it needs no full-frame clamp.
func (r *Recoverer) Recover(in Input) *vmath.Plane {
	defer telemetry.Start(telemetry.StageRecovery).Stop()
	if in.Prev == nil {
		panic("recovery: Input.Prev is required")
	}
	var out *vmath.Plane
	switch {
	case in.PrevCode != nil && in.CurCode != nil:
		out = r.recoverHinted(in)
	case in.PrevPrev != nil:
		out = r.recoverExtrapolated(in)
	default:
		out = r.Reuse(in.Prev).Clamp255()
	}
	if in.Part != nil && in.PartMask != nil {
		out = r.overridePartial(out, in.Part, in.PartMask)
	}
	return out
}

// recoverHinted is the full pipeline. The binary point code plays its two
// roles from the paper: its delta against the previous code carries the
// true motion of the *current* frame (which extrapolation cannot know), and
// its contours reveal where the warped prediction is wrong (new content, so
// those regions are re-synthesised by edge-guided inpainting).
func (r *Recoverer) recoverHinted(in Input) *vmath.Plane {
	cfg := r.cfg
	r.prepPrevWork(in.Prev)

	// Base motion: frame-based flow extrapolated one step when I_{t-2}
	// is available (one step of constant velocity is the field itself),
	// otherwise zero motion.
	base := r.baseFlow(in)
	if base == nil {
		base = flow.NewField(cfg.WorkW, cfg.WorkH)
		for i := range base.Conf {
			base.Conf[i] = 0.5
		}
	}

	// Hint motion: flow between the consecutive binary point codes. Codes
	// are sparse, so matching uses a strong zero bias and the result is
	// only trusted where its confidence is high.
	prevSoft := in.PrevCode.SoftPlane()
	curSoft := in.CurCode.SoftPlane()
	codeFlow := flow.Estimate(prevSoft, curSoft,
		flow.Options{Levels: 2, Search: 2, ZeroBias: 1.5})
	vmath.Put(prevSoft)
	vmath.Put(curSoft)
	hint := codeFlow.Resample(cfg.WorkW, cfg.WorkH)
	codeFlow.Release()

	// Fuse in place into the base field (nothing reads the pure
	// extrapolation afterwards): lean toward the hint where it is
	// confident and disagrees with the extrapolation (the hint knows the
	// current frame; extrapolation only assumes constant velocity).
	fused := base
	par.ForSpans(len(fused.U), pixelSpan, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			w := hint.Conf[i] * hint.Conf[i] * 0.6
			fused.U[i] += w * (hint.U[i] - fused.U[i])
			fused.V[i] += w * (hint.V[i] - fused.V[i])
			if hint.Conf[i] > fused.Conf[i] {
				fused.Conf[i] = hint.Conf[i]
			}
		}
	})
	hint.Release()

	// Snap near-integer vectors: exact copies avoid generation loss over
	// consecutive recoveries.
	fused.SnapIntegers(0.35)
	warped, valid := r.warpPrev(fused)
	fused.Release()

	// Mismatch detection: contours promised by the current code that the
	// warped prediction does not contain (and stale contours it should
	// not contain) become holes for the inpainting branch.
	r.markCodeMismatch(warped, valid, in.CurCode)

	// Ipart at work resolution is real data: feed it into the inpainting
	// as known pixels so diffusion grows from truth.
	r.overlayPartWork(warped, valid, in)

	// Inpaint holes guided by the current code's contours, then finish.
	guide := in.CurCode.EdgeGuide(cfg.WorkW, cfg.WorkH)
	filled := r.inpaint(warped, valid, guide, inpaintIters)
	vmath.Put(guide)
	vmath.Put(warped)
	res := r.finish(filled, valid)
	vmath.Put(filled)
	vmath.Put(valid)
	return res
}

// overlayPartWork resamples the partial frame and its mask to work
// resolution (pooled scratch) and pastes received pixels into warped/valid.
func (r *Recoverer) overlayPartWork(warped, valid *vmath.Plane, in Input) {
	if in.Part == nil || in.PartMask == nil {
		return
	}
	cfg := r.cfg
	partWork := vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), in.Part)
	maskWork := vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), in.PartMask)
	par.ForSpans(len(warped.Pix), pixelSpan, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			if maskWork.Pix[i] > 0.5 {
				warped.Pix[i] = partWork.Pix[i]
				valid.Pix[i] = 1
			}
		}
	})
	vmath.Put(partWork)
	vmath.Put(maskWork)
}

// markCodeMismatch compares the contours of the warped prediction against
// the received current code and clears `valid` where they disagree, bounded
// so inpainting never overwhelms a mostly-correct prediction. The extractor
// and mismatch bitmaps are scratch kept on the Recoverer.
func (r *Recoverer) markCodeMismatch(warped, valid *vmath.Plane, cur *edgecode.Code) {
	if r.mismExt == nil || r.mismExt.W != cur.W || r.mismExt.H != cur.H {
		r.mismExt = edgecode.NewExtractor(cur.W, cur.H)
		r.mismExt.HistoryWeight = 0
	}
	ext := r.mismExt
	ext.TargetDensity = cur.Density()
	if ext.TargetDensity < 0.02 {
		return
	}
	predCode := ext.Extract(warped)

	const nb = 2 // contour match tolerance in code pixels
	if len(r.mismA) < cur.W*cur.H {
		r.mismA = make([]bool, cur.W*cur.H)
		r.mismB = make([]bool, cur.W*cur.H)
	}
	mism := r.mismA[:cur.W*cur.H]
	for i := range mism {
		mism[i] = false
	}
	total := 0
	for y := 0; y < cur.H; y++ {
		for x := 0; x < cur.W; x++ {
			cb := cur.Get(x, y)
			pb := predCode.Get(x, y)
			if cb == pb {
				continue
			}
			// A bit mismatches only when no counterpart exists nearby.
			other := predCode
			if pb {
				other = cur
			}
			found := false
			for dy := -nb; dy <= nb && !found; dy++ {
				for dx := -nb; dx <= nb; dx++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || yy < 0 || xx >= cur.W || yy >= cur.H {
						continue
					}
					if other.Get(xx, yy) {
						found = true
						break
					}
				}
			}
			if !found {
				mism[y*cur.W+x] = true
			}
		}
	}
	// Filter isolated mismatch bits (code noise): a genuine new object or
	// motion error produces clustered mismatches.
	filtered := r.mismB[:cur.W*cur.H]
	for i := range filtered {
		filtered[i] = false
	}
	for y := 0; y < cur.H; y++ {
		for x := 0; x < cur.W; x++ {
			if !mism[y*cur.W+x] {
				continue
			}
			neighbours := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					xx, yy := x+dx, y+dy
					if xx < 0 || yy < 0 || xx >= cur.W || yy >= cur.H {
						continue
					}
					if mism[yy*cur.W+xx] {
						neighbours++
					}
				}
			}
			if neighbours >= 2 {
				filtered[y*cur.W+x] = true
				total++
			}
		}
	}
	mism = filtered
	// Bound the damage: if more than 35% of contour bits mismatch the
	// scene changed wholesale; inpainting everything would be worse than
	// keeping the warp, so only the strongest signal (the raw mismatches,
	// undilated) is used in that case.
	dilate := total*4 < cur.W*cur.H/10*35/10
	rad := 1
	if dilate {
		rad = 2
	}
	// Dilate by rad in code space with two separable passes (the naive
	// per-work-pixel neighbourhood scan was a top-three term of the
	// recovery profile), then clear valid with one lookup per work pixel.
	if len(r.mismC) < cur.W*cur.H {
		r.mismC = make([]bool, cur.W*cur.H)
	}
	hor := r.mismA[:cur.W*cur.H] // raw mismatch bits are dead past this point
	dil := r.mismC[:cur.W*cur.H]
	for y := 0; y < cur.H; y++ {
		row := mism[y*cur.W : y*cur.W+cur.W]
		out := hor[y*cur.W : y*cur.W+cur.W]
		for x := range out {
			hit := false
			for dx := -rad; dx <= rad; dx++ {
				if xx := x + dx; xx >= 0 && xx < cur.W && row[xx] {
					hit = true
					break
				}
			}
			out[x] = hit
		}
	}
	for y := 0; y < cur.H; y++ {
		out := dil[y*cur.W : y*cur.W+cur.W]
		for x := range out {
			hit := false
			for dy := -rad; dy <= rad; dy++ {
				if yy := y + dy; yy >= 0 && yy < cur.H && hor[yy*cur.W+x] {
					hit = true
					break
				}
			}
			out[x] = hit
		}
	}
	sx := float64(cur.W) / float64(valid.W)
	sy := float64(cur.H) / float64(valid.H)
	par.ForRows(valid.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			cy := int(float64(y) * sy)
			crow := dil[cy*cur.W : cy*cur.W+cur.W]
			for x := 0; x < valid.W; x++ {
				if crow[int(float64(x)*sx)] {
					valid.Pix[y*valid.W+x] = 0
				}
			}
		}
	})
}

// recoverExtrapolated predicts the frame without a hint: flow between the
// two previous frames is extrapolated one step forward (constant velocity),
// and inpainting runs unguided.
func (r *Recoverer) recoverExtrapolated(in Input) *vmath.Plane {
	r.prepPrevWork(in.Prev)
	// Flow from I_{t-2} to I_{t-1}; assuming constant motion, the same
	// field predicts I_t from I_{t-1} — one extrapolation step is the
	// field itself, so it is snapped and used directly.
	f := r.baseFlow(in)
	ext := f.SnapIntegers(0.35)
	warped, valid := r.warpPrev(ext)
	f.Release()
	r.overlayPartWork(warped, valid, in)
	filled := r.inpaint(warped, valid, nil, inpaintIters)
	vmath.Put(warped)
	res := r.finish(filled, valid)
	vmath.Put(filled)
	vmath.Put(valid)
	return res
}

// overridePartial pastes received content, clamped to [0, 255], over the
// prediction in place (the paper: "partial content is also used to
// override the predicted frame in the corresponding region") and returns
// pred.
func (r *Recoverer) overridePartial(pred, part, mask *vmath.Plane) *vmath.Plane {
	p := part
	m := mask
	pooled := false
	if part.W != pred.W || part.H != pred.H {
		p = vmath.ResizeBilinearInto(vmath.Get(pred.W, pred.H), part)
		m = vmath.ResizeBilinearInto(vmath.Get(pred.W, pred.H), mask)
		pooled = true
	}
	par.ForSpans(len(pred.Pix), pixelSpan, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			if m.Pix[i] > 0.5 {
				v := p.Pix[i]
				if v < 0 {
					v = 0
				} else if v > 255 {
					v = 255
				}
				pred.Pix[i] = v
			}
		}
	})
	if pooled {
		vmath.Put(p)
		vmath.Put(m)
	}
	return pred
}

// inpaint fills pixels with valid==0 by iterative 4-neighbour diffusion.
// When guide is non-nil (a [0,1] edge map), diffusion across strong edges
// is damped so filled regions respect the hinted contours. Valid pixels
// are hard constraints; each hole keeps a self-anchor to its warped value,
// so mildly wrong content is adjusted rather than erased (pure diffusion
// would wipe texture that is only a couple of pixels out of place).
// The result is a fresh pool-backed plane; img is left untouched (it is
// the diffusion anchor).
//
// Neither valid nor guide changes between iterations, so each hole's
// stencil (inpaintHole) is computed once per call into scratch on the
// Recoverer; an iteration is then four multiply-adds, in left, right, up,
// down order, and one divide per hole. That gives the same bits as
// recomputing the weights in every iteration (TestInpaintMatchesRef).
//
// Both phases run on the pool in spans whose boundaries depend only on
// the plane size and the hole count. The table is built in pixel order
// by spans of pixels: each span counts its holes, a prefix sum gives
// every span its offset, and each span writes its own stencils there.
// Each Jacobi iteration reads one plane and writes the other's holes, in
// spans of the table.
func (r *Recoverer) inpaint(img, valid, guide *vmath.Plane, iters int) *vmath.Plane {
	w, h := img.W, img.H
	out := vmath.Get(w, h).CopyFrom(img)
	spans := (len(valid.Pix) + pixelSpan - 1) / pixelSpan
	if cap(r.holeOff) < spans {
		r.holeOff = make([]int, spans)
	}
	off := r.holeOff[:spans]
	par.ForSpans(len(valid.Pix), pixelSpan, func(i0, i1 int) {
		c := 0
		for _, v := range valid.Pix[i0:i1] {
			if v < 0.5 {
				c++
			}
		}
		off[i0/pixelSpan] = c
	})
	n := 0
	for s, c := range off {
		off[s] = n
		n += c
	}
	if n == 0 {
		return out
	}
	if cap(r.holes) < n {
		// Size the table to the count: growing it by append would hold
		// up to twice the largest hole count, plus the arrays it outgrew.
		r.holes = make([]inpaintHole, n)
	}
	holes := r.holes[:n]
	par.ForSpans(len(valid.Pix), pixelSpan, func(i0, i1 int) {
		k := off[i0/pixelSpan]
		for i := i0; i < i1; i++ {
			if valid.Pix[i] < 0.5 {
				holes[k] = newInpaintHole(i, img, valid, guide)
				k++
			}
		}
	})

	// Jacobi iterations between two planes that agree outside the holes:
	// each reads one and writes the other's holes, then they swap. One
	// closure serves every iteration; it reads the pair through src/dst.
	next := vmath.Get(w, h).CopyFrom(img)
	var src, dst []float32
	sweep := func(k0, k1 int) {
		src, dst := src, dst
		for k := k0; k < k1; k++ {
			hl := &holes[k]
			acc := hl.anchor
			acc += hl.w[0] * src[hl.nb[0]]
			acc += hl.w[1] * src[hl.nb[1]]
			acc += hl.w[2] * src[hl.nb[2]]
			acc += hl.w[3] * src[hl.nb[3]]
			dst[hl.i] = acc / hl.wsum
		}
	}
	for it := 0; it < iters; it++ {
		src, dst = out.Pix, next.Pix
		par.ForSpans(len(holes), holeSpan, sweep)
		out, next = next, out
	}
	vmath.Put(next)
	return out
}

// newInpaintHole returns the diffusion stencil of hole pixel i.
func newInpaintHole(i int, img, valid, guide *vmath.Plane) inpaintHole {
	const selfWeight = 0.8 // the hole's pull toward its own warped value
	w, h := img.W, img.H
	x, y := i%w, i/w
	hole := inpaintHole{i: int32(i), anchor: selfWeight * img.Pix[i], wsum: selfWeight}
	for k, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		// An out-of-frame neighbour reads the hole itself at weight 0.
		hole.nb[k] = int32(i)
		nx, ny := x+d[0], y+d[1]
		if nx < 0 || ny < 0 || nx >= w || ny >= h {
			continue
		}
		j := ny*w + nx
		wgt := float32(1)
		if guide != nil {
			// Damp diffusion across hinted contours.
			wgt = 1 - 0.85*guide.Pix[j]
			if wgt < 0.05 {
				wgt = 0.05
			}
		}
		// Pulls from valid pixels count extra: truth anchors.
		if valid.Pix[j] >= 0.5 {
			wgt *= 2
		}
		hole.nb[k] = int32(j)
		hole.w[k] = wgt
		hole.wsum += wgt
	}
	return hole
}

// inpaintHole is one hole's diffusion stencil: its pixel index, its
// left, right, up and down neighbours with their weights, its anchor term
// selfWeight·img and its weight sum.
type inpaintHole struct {
	i      int32
	nb     [4]int32
	w      [4]float32
	anchor float32
	wsum   float32
}
