package experiments

import (
	"fmt"

	"nerve/internal/abr"
	"nerve/internal/device"
	"nerve/internal/edgecode"
	"nerve/internal/fec"
	"nerve/internal/metrics"
	"nerve/internal/netem"
	"nerve/internal/recovery"
	"nerve/internal/sim"
	"nerve/internal/trace"
	"nerve/internal/video"
)

// AblationCodeResolution varies the binary point code geometry and measures
// recovery quality and side-channel cost — the design choice behind the
// paper's 64×128 (1 KB) pick.
func AblationCodeResolution(opts Options) *Table {
	w, h := 160, 96
	steps := 10
	if !opts.Quick {
		w, h = 320, 180
		steps = 20
	}
	src := testClips(opts)[0]
	t := &Table{
		ID:     "abl-code",
		Title:  "Ablation: binary point code resolution",
		Header: []string{"code", "bytes", "PSNR", "SSIM"},
		Notes:  []string{"the paper picks 64×128 = 1 KB: near the quality knee at minimal cost"},
	}
	for _, geom := range [][2]int{{64, 32}, {128, 64}, {256, 128}} {
		cw, ch := geom[0], geom[1]
		g := src.Generator()
		ext := edgecode.NewExtractor(cw, ch)
		r := recovery.New(recovery.Config{OutW: w, OutH: h})
		prevPrev := g.Render(38, w, h)
		prev := g.Render(39, w, h)
		prevCode := ext.Extract(prev)
		var s metrics.Series
		for k := 0; k < steps; k++ {
			truth := g.Render(40+k, w, h)
			code := ext.Extract(truth)
			out := r.Recover(recovery.Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: code})
			s.ObserveFrames(truth, out)
			prevPrev, prev, prevCode = prev, out, code
		}
		t.AddRow(fmt.Sprintf("%dx%d", ch, cw),
			fmt.Sprintf("%d", edgecode.NewCode(cw, ch).SizeBytes()),
			fmt.Sprintf("%.2f", s.MeanPSNR()),
			fmt.Sprintf("%.3f", s.MeanSSIM()))
	}
	return t
}

// AblationWarpResolution varies the warping/working resolution and reports
// quality against the modelled warp latency — §7's 270p-vs-1080p tradeoff.
func AblationWarpResolution(opts Options) *Table {
	outW, outH := 320, 180
	steps := 8
	if !opts.Quick {
		outW, outH = 640, 360
		steps = 16
	}
	dev := device.IPhone12()
	src := testClips(opts)[0]
	t := &Table{
		ID:     "abl-warp",
		Title:  "Ablation: warp/working resolution",
		Header: []string{"work", "PSNR", "warp(ms)"},
		Notes:  []string{"§7: warping at reduced resolution trades little quality for a large latency win"},
	}
	for _, div := range []int{1, 2, 4} {
		ww, wh := outW/div, outH/div
		g := src.Generator()
		ext := edgecode.NewExtractor(0, 0)
		r := recovery.New(recovery.Config{OutW: outW, OutH: outH, WorkW: ww, WorkH: wh})
		prevPrev := g.Render(38, outW, outH)
		prev := g.Render(39, outW, outH)
		prevCode := ext.Extract(prev)
		var s metrics.Series
		for k := 0; k < steps; k++ {
			truth := g.Render(40+k, outW, outH)
			code := ext.Extract(truth)
			out := r.Recover(recovery.Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: code})
			s.ObserveFrames(truth, out)
			prevPrev, prev, prevCode = prev, out, code
		}
		t.AddRow(fmt.Sprintf("%dx%d", ww, wh),
			fmt.Sprintf("%.2f", s.MeanPSNR()),
			fmt.Sprintf("%.1f", dev.WarpLatency(ww, wh)*1000))
	}
	return t
}

// AblationPredictor compares EWMA against Holt–Winters as the loss/
// throughput predictor inside the streaming loop (§6 mentions both).
func AblationPredictor(opts Options) *Table {
	t := &Table{
		ID:     "abl-pred",
		Title:  "Ablation: throughput predictor (one-step error on traces)",
		Header: []string{"network", "EWMA err%", "Holt err%"},
	}
	for _, nt := range trace.NetworkTypes() {
		var errE, errH float64
		n := 0
		for i := 0; i < 3; i++ {
			tr := trace.Generate(nt, 200, opts.Seed+int64(i))
			e := abr.NewEWMA(0.3)
			hw := abr.NewHoltWinters(0.5, 0.3)
			for j, s := range tr.Samples {
				if j > 0 {
					pe := e.Predict()
					ph := hw.Predict()
					errE += relErr(pe, s.ThroughputBps)
					errH += relErr(ph, s.ThroughputBps)
					n++
				}
				e.Observe(s.ThroughputBps)
				hw.Observe(s.ThroughputBps)
			}
		}
		t.AddRow(nt.String(),
			fmt.Sprintf("%.1f", 100*errE/float64(n)),
			fmt.Sprintf("%.1f", 100*errH/float64(n)))
	}
	return t
}

func relErr(pred, actual float64) float64 {
	if actual <= 0 {
		return 0
	}
	d := pred - actual
	if d < 0 {
		d = -d
	}
	return d / actual
}

// AblationFECScheme compares Reed–Solomon against interleaved XOR parity at
// equal redundancy under bursty loss.
func AblationFECScheme(opts Options) *Table {
	frames := 2000
	if opts.Quick {
		frames = 500
	}
	const pkts = 10
	t := &Table{
		ID:     "abl-fec",
		Title:  "Ablation: FEC scheme (frame loss at equal redundancy, bursty loss)",
		Header: []string{"loss", "redundancy", "RS frame loss", "XOR frame loss"},
		Notes:  []string{"RS (any-k-of-n) beats interleaved XOR under bursts"},
	}
	for _, loss := range []float64{0.01, 0.05} {
		for _, red := range []float64{0.2, 0.4} {
			var rates [2]float64
			for ki, kind := range []fec.Kind{fec.KindReedSolomon, fec.KindXOR} {
				ge := netem.NewGilbertElliott(opts.Seed + int64(ki))
				lost := 0
				for f := 0; f < frames; f++ {
					packets := make([][]byte, pkts)
					for i := range packets {
						packets[i] = []byte{byte(i)}
					}
					prot, err := fec.Protect(packets, red, kind)
					if err != nil {
						panic(err)
					}
					recv := make([]bool, prot.K+prot.M)
					for i := range recv {
						recv[i] = !ge.Drop(0, loss)
					}
					if _, ok := prot.Recover(recv); !ok {
						lost++
					}
				}
				rates[ki] = float64(lost) / float64(frames)
			}
			t.AddRow(fmt.Sprintf("%.0f%%", loss*100), fmt.Sprintf("%.0f%%", red*100),
				fmt.Sprintf("%.3f", rates[0]), fmt.Sprintf("%.3f", rates[1]))
		}
	}
	return t
}

// AblationSharedFlow models the memory/compute benefit of sharing one
// optical-flow module across SR scales versus per-scale networks (§5's
// design choice), using the device cost model.
func AblationSharedFlow(opts Options) *Table {
	dev := device.IPhone12()
	// The flow module is ~60% of the model FLOPs; per-resolution heads
	// share the rest.
	const flowG, headG = 6.5, 4.3
	t := &Table{
		ID:     "abl-flow",
		Title:  "Ablation: shared vs per-resolution flow network (cost model)",
		Header: []string{"design", "FLOPs(G)", "params(K)", "latency(ms)"},
		Notes:  []string{"sharing keeps one flow module across all rungs (§5)"},
	}
	nScales := len(video.Resolutions()) - 1
	shared := flowG + headG
	perScale := flowG*float64(nScales) + headG
	t.AddRow("shared flow", fmt.Sprintf("%.1f", shared), "1619",
		fmt.Sprintf("%.0f", dev.ModelLatency(shared, true)*1000))
	t.AddRow("per-scale flow", fmt.Sprintf("%.1f", perScale),
		fmt.Sprintf("%.0f", 1619+float64(nScales-1)*900),
		fmt.Sprintf("%.0f", dev.ModelLatency(perScale, true)*1000))
	return t
}

// AblationBufferSize sweeps the client buffer cap and reports the full
// system's QoE — quantifying the thin-buffer regime the system targets.
func AblationBufferSize(opts Options) *Table {
	set := sim.NewSchemeSet()
	t := &Table{
		ID:     "abl-buffer",
		Title:  "Ablation: client buffer cap (full system, 5G)",
		Header: []string{"buffer(s)", "QoE", "recovered %"},
	}
	for _, buf := range []float64{4, 8, 16, 30} {
		var q, rec float64
		traces := tracesFor(opts, trace.Net5G)
		for i, tr := range traces {
			res := sim.Run(sim.Config{Trace: tr, Seed: opts.Seed + int64(i), Chunks: chunksFor(opts), MaxBufferSec: buf}, set.Full())
			q += res.QoE
			rec += res.RecoveredFrac
		}
		n := float64(len(traces))
		t.AddRow(fmt.Sprintf("%.0f", buf), fmt.Sprintf("%.3f", q/n), fmt.Sprintf("%.1f", 100*rec/n))
	}
	return t
}
