package experiments

import (
	"fmt"
	"math"

	"nerve/internal/codec"
	"nerve/internal/device"
	"nerve/internal/edgecode"
	"nerve/internal/metrics"
	"nerve/internal/par"
	"nerve/internal/qoe"
	"nerve/internal/recovery"
	"nerve/internal/sim"
	"nerve/internal/sr"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// dnnGeometry returns the working geometry of the DNN-level experiments:
// the display resolution stands in for 1080p; the ladder rungs scale
// proportionally.
func dnnGeometry(opts Options) (dispW, dispH int) {
	if opts.Quick {
		return 256, 144
	}
	return 854, 480
}

// rungDims scales ladder rung r into the working display geometry.
func rungDims(r video.Resolution, dispW, dispH int) (int, int) {
	_, rh := r.Dims()
	scale := float64(rh) / 1080
	w := int(float64(dispW)*scale+0.5) &^ 1
	h := int(float64(dispH)*scale+0.5) &^ 1
	if w < 16 {
		w = 16
	}
	if h < 16 {
		h = 16
	}
	return w, h
}

// testClips returns the evaluation clip sources. Quick mode picks the
// motion-heavy categories (Vlogs, GamePlay, Challenges) whose dynamics
// resemble the REDS clips the paper evaluates on.
func testClips(opts Options) []video.ClipSource {
	d := video.NewDataset()
	if opts.Quick {
		return []video.ClipSource{d.Test[2], d.Test[3], d.Test[6]}
	}
	// Full mode leads with the dynamic categories, then the rest.
	order := []int{2, 3, 6, 4, 0, 1, 5, 7, 8, 9}
	out := make([]video.ClipSource, 0, len(order))
	for _, i := range order {
		out = append(out, d.Test[i])
	}
	return out
}

// chainMode names the three recovery schemes of Figs. 7/8.
type chainMode int

const (
	modeReuse chainMode = iota
	modeNoCode
	modeHinted
)

func (m chainMode) String() string {
	switch m {
	case modeReuse:
		return "reuse"
	case modeNoCode:
		return "w/o point map"
	default:
		return "our"
	}
}

// runChain predicts `steps` consecutive frames of a clip starting at
// `start` under the given mode, optionally feeding a partial observation
// covering partFrac of each frame's rows, and returns mean PSNR and SSIM
// plus the per-step PSNR curve.
func runChain(src video.ClipSource, mode chainMode, start, steps, w, h int, partFrac float64) (meanPSNR, meanSSIM float64, perStep []float64) {
	g := src.Generator()
	ext := edgecode.NewExtractor(0, 0)
	r := recovery.New(recovery.Config{OutW: w, OutH: h})

	prevPrev := g.Render(start-2, w, h)
	prev := g.Render(start-1, w, h)
	prevCode := ext.Extract(prev)

	var s metrics.Series
	for k := 0; k < steps; k++ {
		truth := g.Render(start+k, w, h)
		var part, mask *vmath.Plane
		if partFrac > 0 {
			part = vmath.NewPlane(w, h)
			mask = vmath.NewPlane(w, h)
			rows := int(partFrac * float64(h))
			// The received part alternates top/bottom per step, as slice
			// losses do.
			off := 0
			if k%2 == 1 {
				off = h - rows
			}
			for y := off; y < off+rows; y++ {
				for x := 0; x < w; x++ {
					part.Set(x, y, truth.At(x, y))
					mask.Set(x, y, 1)
				}
			}
		}
		var out *vmath.Plane
		switch mode {
		case modeHinted:
			curCode := ext.Extract(truth)
			out = r.Recover(recovery.Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode, Part: part, PartMask: mask})
			prevCode = curCode
		case modeNoCode:
			out = r.Recover(recovery.Input{Prev: prev, PrevPrev: prevPrev, Part: part, PartMask: mask})
		default:
			out = r.Reuse(prev)
			if part != nil {
				out = out.Clone()
				for i := range out.Pix {
					if mask.Pix[i] > 0.5 {
						out.Pix[i] = part.Pix[i]
					}
				}
			}
		}
		p := metrics.PSNR(truth, out)
		s.Observe(p, metrics.SSIM(truth, out))
		perStep = append(perStep, math.Min(p, 100))
		prevPrev = prev
		prev = out
	}
	return s.MeanPSNR(), s.MeanSSIM(), perStep
}

// chainHorizons are the Fig. 7/8 prediction horizons.
var chainHorizons = []int{5, 10, 20, 50}

// figChains produces the Fig. 7 (partFrac = 0) or Fig. 8 (partFrac > 0)
// result: per horizon, PSNR and SSIM for each scheme.
func figChains(opts Options, id, title string, partFrac float64) (*Series, *Series) {
	horizons := chainHorizons
	if opts.Quick {
		horizons = []int{5, 10, 20}
	}
	modes := []chainMode{modeReuse, modeNoCode, modeHinted}
	w, h := 160, 96
	if !opts.Quick {
		w, h = 320, 180
	}
	clips := testClips(opts)

	psnr := &Series{ID: id, Title: title + " (PSNR)", XLabel: "frames", X: f64s(horizons)}
	ssim := &Series{ID: id, Title: title + " (SSIM)", XLabel: "frames", X: f64s(horizons)}
	for _, m := range modes {
		psnr.Columns = append(psnr.Columns, m.String())
		ssim.Columns = append(ssim.Columns, m.String())
		psnr.Y = append(psnr.Y, make([]float64, len(horizons)))
		ssim.Y = append(ssim.Y, make([]float64, len(horizons)))
	}
	// Every (mode, horizon, clip) cell is independent: fan out.
	type cell struct {
		mi, hi, ci int
	}
	var cells []cell
	for mi := range modes {
		for hi := range horizons {
			for ci := range clips {
				cells = append(cells, cell{mi, hi, ci})
			}
		}
	}
	// Workers write per-cell slots; the reduction over clips happens
	// sequentially afterwards so summation order — and thus the result —
	// is independent of worker scheduling.
	pCell := make([]float64, len(cells))
	sCell := make([]float64, len(cells))
	par.For(len(cells), func(i int) {
		c := cells[i]
		pCell[i], sCell[i], _ = runChain(clips[c.ci], modes[c.mi], 40+10*c.ci, horizons[c.hi], w, h, partFrac)
	})
	for i, c := range cells {
		psnr.Y[c.mi][c.hi] += pCell[i] / float64(len(clips))
		ssim.Y[c.mi][c.hi] += sCell[i] / float64(len(clips))
	}
	return psnr, ssim
}

// Fig7 reproduces the full-frame prediction comparison.
func Fig7(opts Options) (*Series, *Series) {
	return figChains(opts, "fig7", "Video prediction quality vs consecutive recovered frames", 0)
}

// Fig8 reproduces the partial-recovery comparison (half of each frame
// received, as under WiFi slice losses).
func Fig8(opts Options) (*Series, *Series) {
	return figChains(opts, "fig8", "Partial video recovery quality", 0.5)
}

// Fig4a measures PSNR versus the number of consecutive recovered frames
// (the recovery-impact mapping function used by the enhancement-aware ABR).
func Fig4a(opts Options) *Series {
	maxSteps := 100
	w, h := 160, 96
	clips := testClips(opts)
	if opts.Quick {
		maxSteps = 24
		clips = clips[:1]
	}
	marks := []int{1, 2, 5, 10, 20, 50, 100}
	var xs []float64
	curves := make([]float64, 0, len(marks))
	acc := make(map[int]float64)
	for _, src := range clips {
		_, _, per := runChain(src, modeHinted, 50, maxSteps, w, h, 0)
		for _, m := range marks {
			if m <= len(per) {
				acc[m] += per[m-1]
			}
		}
	}
	for _, m := range marks {
		if v, ok := acc[m]; ok {
			xs = append(xs, float64(m))
			curves = append(curves, v/float64(len(clips)))
		}
	}
	return &Series{
		ID: "fig4a", Title: "PSNR vs consecutive recovered frames",
		XLabel: "consecutive", Columns: []string{"PSNR(dB)"},
		X: xs, Y: [][]float64{curves},
		Notes: []string{"graceful degradation with horizon (paper Fig. 4a)"},
	}
}

// Fig4b measures delivered PSNR versus bitrate: each ladder rung is encoded
// at its bitrate/scaled resolution and compared against the display-scale
// ground truth after bilinear upscale.
func Fig4b(opts Options) *Series {
	dispW, dispH := dnnGeometry(opts)
	frames := 16
	clips := testClips(opts)[:1]
	if !opts.Quick {
		frames = 48
	}
	var xs, ys []float64
	for _, r := range video.Resolutions() {
		rw, rh := rungDims(r, dispW, dispH)
		// The bitrate budget scales with the pixel ratio versus 1080p so
		// the working geometry sees an equivalent bits-per-pixel load.
		scale := float64(rw*rh) / (1920.0 * 1080.0 / 25.0) // working area is ~1/25 of full
		_ = scale
		rate := r.Bitrate() * float64(dispW*dispH) / (1920 * 1080)
		var s metrics.Series
		for _, src := range clips {
			g := src.Generator()
			enc := codec.NewEncoder(codec.Config{W: rw, H: rh, GOP: 30, TargetBitrate: rate})
			dec := codec.NewDecoder(codec.Config{W: rw, H: rh})
			for i := 0; i < frames; i++ {
				truth := g.Render(i, dispW, dispH)
				lr := vmath.ResizeBilinear(truth, rw, rh)
				ef := enc.Encode(lr)
				dr, err := dec.Decode(ef, nil)
				if err != nil {
					continue
				}
				up := vmath.ResizeBilinear(dr.Frame, dispW, dispH)
				s.Observe(metrics.PSNR(truth, up), 0)
			}
		}
		xs = append(xs, r.Bitrate()/1e6)
		ys = append(ys, s.MeanPSNR())
	}
	return &Series{
		ID: "fig4b", Title: "PSNR vs bitrate (rate-quality mapping)",
		XLabel: "Mbps", Columns: []string{"PSNR(dB)"},
		X: xs, Y: [][]float64{ys},
		Notes: []string{"monotone increasing, concave (paper Fig. 4b)"},
	}
}

// Fig10 compares super-resolution against plain upsampling per input rung.
func Fig10(opts Options) (*Series, *Series) {
	dispW, dispH := dnnGeometry(opts)
	frames := 8
	clips := testClips(opts)
	if !opts.Quick {
		frames = 24
	}
	rungs := []video.Resolution{video.R240, video.R360, video.R480, video.R720}
	psnr := &Series{ID: "fig10", Title: "Super-resolution quality per input resolution (PSNR)", XLabel: "rung", Columns: []string{"upsample", "our"}}
	ssim := &Series{ID: "fig10", Title: "Super-resolution quality per input resolution (SSIM)", XLabel: "rung", Columns: []string{"upsample", "our"}}
	var upP, ourP, upS, ourS []float64
	for _, r := range rungs {
		rw, rh := rungDims(r, dispW, dispH)
		var aUp, aOur metrics.Series
		for ci, src := range clips {
			g := src.Generator()
			resolver := sr.New(sr.Config{OutW: dispW, OutH: dispH})
			for i := 0; i < frames; i++ {
				truth := g.Render(30*ci+i, dispW, dispH)
				lr := vmath.ResizeBilinear(truth, rw, rh)
				up := sr.UpscaleBilinear(lr, dispW, dispH)
				our := resolver.Upscale(lr)
				aUp.ObserveFrames(truth, up)
				aOur.ObserveFrames(truth, our)
			}
		}
		psnr.X = append(psnr.X, float64(r.Index()))
		ssim.X = append(ssim.X, float64(r.Index()))
		upP = append(upP, aUp.MeanPSNR())
		ourP = append(ourP, aOur.MeanPSNR())
		upS = append(upS, aUp.MeanSSIM())
		ourS = append(ourS, aOur.MeanSSIM())
	}
	psnr.Y = [][]float64{upP, ourP}
	ssim.Y = [][]float64{upS, ourS}
	return psnr, ssim
}

// Table1 reproduces the SR method comparison: published cost figures for
// the baselines, measured quality from the classical analogues, latency
// from the shared device model (see DESIGN.md for the substitution).
func Table1(opts Options) *Table {
	dev := device.IPhone12()
	// REDS-style evaluation: 180×320 input, 4× upscale (quick: half).
	inW, inH := 320, 180
	outW, outH := inW*4, inH*4
	frames := 6
	if opts.Quick {
		inW, inH = 80, 44
		outW, outH = inW*4, inH*4
	}
	src := testClips(opts)[0]
	g := src.Generator()
	var gt, lr []*vmath.Plane
	for i := 0; i < frames; i++ {
		f := g.Render(i, outW, outH)
		gt = append(gt, f)
		lr = append(lr, vmath.ResizeBilinear(f, inW, inH))
	}

	t := &Table{
		ID:     "tab1",
		Title:  "Super-resolution method comparison (180×320 → 4×, iPhone 12 cost model)",
		Header: []string{"method", "FLOPS(G)", "params(K)", "latency(ms)", "PSNR", "SSIM"},
		Notes: []string{
			"baseline FLOPs/params are the published Table 1 figures; quality is measured on classical analogues (DESIGN.md §1)",
			"shape: ours has the lowest FLOPs and the only real-time latency",
		},
	}
	for _, m := range sr.Methods() {
		info := m.Info()
		out := sr.RunClip(m, lr, outW, outH)
		var s metrics.Series
		for i := range gt {
			s.ObserveFrames(gt[i], out[i])
		}
		lat := dev.ModelLatency(info.FLOPsG, m == sr.MethodOurs)
		t.AddRow(info.Name,
			fmt.Sprintf("%.2f", info.FLOPsG),
			fmt.Sprintf("%.0f", info.ParamsK),
			fmt.Sprintf("%.0f", lat*1000),
			fmt.Sprintf("%.2f", s.MeanPSNR()),
			fmt.Sprintf("%.3f", s.MeanSSIM()))
	}
	return t
}

// Fig6 writes the recovery visualisation artefacts (previous frame, binary
// point code, recovered prediction, ground truth) and returns their paths.
func Fig6(opts Options) ([]string, error) {
	return visualiseRecovery(opts, "fig6", 0)
}

// Fig9 writes the concealment visualisation (corrupted frame with the top
// half missing, recovery output, ground truth).
func Fig9(opts Options) ([]string, error) {
	return visualiseRecovery(opts, "fig9", 0.5)
}

func visualiseRecovery(opts Options, prefix string, partFrac float64) ([]string, error) {
	w, h := 320, 180
	if opts.Quick {
		w, h = 160, 96
	}
	src := testClips(opts)[0]
	g := src.Generator()
	ext := edgecode.NewExtractor(0, 0)
	r := recovery.New(recovery.Config{OutW: w, OutH: h})

	prevPrev := g.Render(48, w, h)
	prev := g.Render(49, w, h)
	truth := g.Render(50, w, h)
	prevCode := ext.Extract(prev)
	curCode := ext.Extract(truth)

	in := recovery.Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode}
	var corrupted *vmath.Plane
	if partFrac > 0 {
		part := vmath.NewPlane(w, h)
		mask := vmath.NewPlane(w, h)
		rows := int(partFrac * float64(h))
		for y := h - rows; y < h; y++ {
			for x := 0; x < w; x++ {
				part.Set(x, y, truth.At(x, y))
				mask.Set(x, y, 1)
			}
		}
		in.Part, in.PartMask = part, mask
		corrupted = part.Clone()
	}
	pred := r.Recover(in)

	var paths []string
	add := func(name string, p *vmath.Plane) error {
		path, err := writeArtefact(opts, name, p)
		if err != nil {
			return err
		}
		if path != "" {
			paths = append(paths, path)
		}
		return nil
	}
	if err := add(prefix+"_prev.pgm", prev); err != nil {
		return nil, err
	}
	if err := add(prefix+"_code.pgm", vmath.ResizeNearest(curCode.Plane(), w, h)); err != nil {
		return nil, err
	}
	if corrupted != nil {
		if err := add(prefix+"_corrupted.pgm", corrupted); err != nil {
			return nil, err
		}
	}
	if err := add(prefix+"_recovered.pgm", pred); err != nil {
		return nil, err
	}
	if err := add(prefix+"_truth.pgm", truth); err != nil {
		return nil, err
	}
	return paths, nil
}

// Fig11 writes the SR visualisation: bicubic vs our SR at four scales.
func Fig11(opts Options) ([]string, error) {
	dispW, dispH := dnnGeometry(opts)
	src := testClips(opts)[0]
	g := src.Generator()
	truth := g.Render(10, dispW, dispH)
	var paths []string
	for _, r := range []video.Resolution{video.R240, video.R360, video.R480, video.R720} {
		rw, rh := rungDims(r, dispW, dispH)
		lr := vmath.ResizeBilinear(truth, rw, rh)
		bic := sr.UpscaleBicubic(lr, dispW, dispH)
		resolver := sr.New(sr.Config{OutW: dispW, OutH: dispH})
		our := resolver.Upscale(lr)
		for _, a := range []struct {
			kind string
			p    *vmath.Plane
		}{{"bicubic", bic}, {"sr", our}} {
			path, err := writeArtefact(opts, fmt.Sprintf("fig11_%s_%s.pgm", r, a.kind), a.p)
			if err != nil {
				return nil, err
			}
			if path != "" {
				paths = append(paths, path)
			}
		}
	}
	if path, err := writeArtefact(opts, "fig11_truth.pgm", truth); err != nil {
		return nil, err
	} else if path != "" {
		paths = append(paths, path)
	}
	return paths, nil
}

// CalibrateQuality measures the per-rung delivered / recovered / reused /
// super-resolved PSNR on the synthetic corpus and returns the quality model
// the streaming simulator consumes — the loop that ties the chunk-level
// system experiments to the real image pipeline.
func CalibrateQuality(opts Options) (*sim.QualityModel, *Table) {
	dispW, dispH := dnnGeometry(opts)
	frames := 10
	clips := testClips(opts)[:1]
	if !opts.Quick {
		frames = 24
		clips = testClips(opts)[:3]
	}

	base := sim.DefaultQualityModel()
	model := &sim.QualityModel{
		RecoveryDecay: base.RecoveryDecay,
		ReuseDecay:    base.ReuseDecay,
	}
	t := &Table{
		ID:     "calibration",
		Title:  "Measured per-rung quality (drives the streaming simulator)",
		Header: []string{"rung", "delivered", "recovered", "reused", "SR"},
	}

	var points []float64
	for _, r := range video.Resolutions() {
		rw, rh := rungDims(r, dispW, dispH)
		rate := r.Bitrate() * float64(dispW*dispH) / (1920 * 1080)
		var del, rec, reu, srs metrics.Series
		for ci, src := range clips {
			g := src.Generator()
			enc := codec.NewEncoder(codec.Config{W: rw, H: rh, GOP: 30, TargetBitrate: rate})
			dec := codec.NewDecoder(codec.Config{W: rw, H: rh})
			resolver := sr.New(sr.Config{OutW: dispW, OutH: dispH})
			ext := edgecode.NewExtractor(0, 0)
			start := 40 + 20*ci
			// Pass 1: delivered and SR quality on the decoded stream,
			// capturing decoded frames for the concealment chains.
			truths := make([]*vmath.Plane, frames)
			disps := make([]*vmath.Plane, frames)
			for i := 0; i < frames; i++ {
				truth := g.Render(start+i, dispW, dispH)
				lr := vmath.ResizeBilinear(truth, rw, rh)
				ef := enc.Encode(lr)
				dr, err := dec.Decode(ef, nil)
				if err != nil {
					continue
				}
				disp := vmath.ResizeBilinear(dr.Frame, dispW, dispH)
				truths[i] = truth
				disps[i] = disp
				del.ObserveFrames(truth, disp)
				srs.ObserveFrames(truth, resolver.Upscale(dr.Frame))
			}
			// Pass 2: concealment chains starting after two decoded
			// frames — the operating condition of the recovery model
			// (consecutive lost/late frames, as in Fig. 7).
			if frames >= 4 && disps[0] != nil && disps[1] != nil {
				recov := recovery.New(recovery.Config{OutW: dispW, OutH: dispH})
				prevPrev, prev := disps[0], disps[1]
				prevCode := ext.Extract(prev)
				frozen := disps[1]
				for i := 2; i < frames; i++ {
					if truths[i] == nil {
						break
					}
					code := ext.Extract(truths[i])
					out := recov.Recover(recovery.Input{
						Prev: prev, PrevPrev: prevPrev,
						PrevCode: prevCode, CurCode: code,
					})
					rec.ObserveFrames(truths[i], out)
					reu.ObserveFrames(truths[i], frozen)
					prevPrev, prev, prevCode = prev, out, code
				}
			}
		}
		points = append(points, del.MeanPSNR())
		model.Recovered = append(model.Recovered, rec.MeanPSNR())
		model.Reused = append(model.Reused, reu.MeanPSNR())
		model.SR = append(model.SR, srs.MeanPSNR())
		t.AddRow(r.String(),
			fmt.Sprintf("%.2f", del.MeanPSNR()),
			fmt.Sprintf("%.2f", rec.MeanPSNR()),
			fmt.Sprintf("%.2f", reu.MeanPSNR()),
			fmt.Sprintf("%.2f", srs.MeanPSNR()))
	}
	// Build the delivered map with the same low-end anchors the default
	// model documents.
	qp := base.Delivered.Points()[:2]
	for i, r := range video.Resolutions() {
		qp = append(qp, qoe.RateQuality{Mbps: r.Bitrate() / 1e6, PSNR: points[i]})
	}
	model.Delivered = qoe.NewQualityMap(qp)
	return model, t
}

func f64s(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
