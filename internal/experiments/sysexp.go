package experiments

import (
	"fmt"
	"math"

	"nerve/internal/abr"
	"nerve/internal/par"
	"nerve/internal/sim"
	"nerve/internal/trace"
)

// tracesFor generates the per-network evaluation traces (downscaled per
// §8.3 so the mean falls in the 1–2 Mbps range).
func tracesFor(opts Options, nt trace.NetworkType) []*trace.Trace {
	n := 8
	if opts.Quick {
		n = 4
	}
	out := make([]*trace.Trace, n)
	for i := range out {
		tr := trace.Generate(nt, 240, opts.Seed+int64(i)*17+int64(nt)*1000)
		out[i] = tr.Downscale(1.5e6, 0.3e6, 5e6)
	}
	return out
}

// runSchemes evaluates each scheme over each network type and returns the
// mean QoE table plus the raw per-network means.
func runSchemes(opts Options, schemes []sim.Scheme, id, title string) (*Table, map[string]map[trace.NetworkType]float64) {
	t := &Table{ID: id, Title: title, Header: []string{"scheme", "3G", "4G", "5G", "WiFi"}}
	raw := make(map[string]map[trace.NetworkType]float64)
	chunks := chunksFor(opts)
	nets := trace.NetworkTypes()
	means := make([]float64, len(schemes)*len(nets))
	// Each (scheme, network) cell is an independent batch of sessions.
	// Schemes carry per-session ABR state, so each cell gets its own
	// scheme instance via the ABR's Reset inside sim.Run; cells of the
	// SAME scheme must not run concurrently — parallelise over networks
	// within a scheme instead.
	for si, sc := range schemes {
		sc := sc
		par.For(len(nets), func(ni int) {
			nt := nets[ni]
			traces := tracesFor(opts, nt)
			var q float64
			for i, tr := range traces {
				cfg := sim.Config{Trace: tr, Seed: opts.Seed + int64(i) + int64(nt)*99, Chunks: chunks}
				q += sim.Run(cfg, cloneScheme(sc)).QoE
			}
			means[si*len(nets)+ni] = q / float64(len(traces))
		})
	}
	for si, sc := range schemes {
		row := []string{sc.Name}
		raw[sc.Name] = make(map[trace.NetworkType]float64)
		for ni, nt := range nets {
			mean := means[si*len(nets)+ni]
			raw[sc.Name][nt] = mean
			row = append(row, fmt.Sprintf("%.3f", mean))
		}
		t.AddRow(row...)
	}
	return t, raw
}

// cloneScheme gives each parallel worker its own ABR instance (ABR
// algorithms carry per-session state).
func cloneScheme(sc sim.Scheme) sim.Scheme {
	set := sim.NewSchemeSet()
	var fresh sim.Scheme
	switch sc.Name {
	case "w/o RC":
		fresh = set.WithoutRecovery()
	case "w/o RC (reuse)":
		fresh = set.WithoutRecoveryReuse()
	case "RC alone":
		fresh = set.RecoveryAlone()
	case "our (RC)":
		fresh = set.RecoveryAware()
	case "w/o SR":
		fresh = set.WithoutSR()
	case "SR alone":
		fresh = set.SRAlone()
	case "NEMO":
		fresh = set.NEMO()
	case "our (SR)":
		fresh = set.SRAware()
	case "w/o SR & RC":
		fresh = set.Baseline()
	case "SR & RC alone":
		fresh = set.BothAlone()
	case "our":
		fresh = set.Full()
	default:
		return sc
	}
	fresh.UseFEC = sc.UseFEC
	fresh.Planner = sc.Planner
	return fresh
}

// Fig12 evaluates the recovery-only schemes across network types.
func Fig12(opts Options) *Table {
	set := sim.NewSchemeSet()
	t, _ := runSchemes(opts, []sim.Scheme{
		set.WithoutRecovery(), set.RecoveryAlone(), set.RecoveryAware(),
	}, "fig12", "QoE of recovery-only schemes across networks")
	t.Notes = append(t.Notes, "shape: our > RC alone > w/o RC; 5G shows the largest improvement")
	return t
}

// Table3 reports the QoE of recovered frames only, per scheme and network.
func Table3(opts Options) *Table {
	set := sim.NewSchemeSet()
	schemes := []sim.Scheme{set.WithoutRecovery(), set.RecoveryAlone(), set.RecoveryAware()}
	t := &Table{
		ID:     "tab3",
		Title:  "QoE of recovered frames only",
		Header: []string{"scheme", "3G", "4G", "5G", "WiFi"},
		Notes:  []string{"shape: w/o RC strongly negative (stall-dominated); RC alone near zero; our highest"},
	}
	chunks := chunksFor(opts)
	for _, sc := range schemes {
		row := []string{sc.Name}
		for _, nt := range trace.NetworkTypes() {
			var q float64
			n := 0
			for i, tr := range tracesFor(opts, nt) {
				res := sim.Run(sim.Config{Trace: tr, Seed: opts.Seed + int64(i) + int64(nt)*99, Chunks: chunks}, sc)
				if !math.IsNaN(res.RecoveredFrameQoE) {
					q += res.RecoveredFrameQoE
					n++
				}
			}
			if n == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", q/float64(n)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig13 reports (a) the downscaled throughput statistics per network and
// (b) the percentage of frames requiring recovery under the full system.
func Fig13(opts Options) (*Table, *Table) {
	a := &Table{
		ID:     "fig13a",
		Title:  "Downscaled trace statistics",
		Header: []string{"network", "mean Mbps", "CV"},
		Notes:  []string{"shape: 5G has the largest fluctuation (CV)"},
	}
	b := &Table{
		ID:     "fig13b",
		Title:  "Percentage of recovered frames",
		Header: []string{"network", "recovered %"},
		Notes: []string{
			"shape: 5G highest; 4G/WiFi around 10% in the paper",
			"measured at a fixed mid-ladder rate to expose network-induced recovery need without ABR feedback",
		},
	}
	chunks := chunksFor(opts)
	for _, nt := range trace.NetworkTypes() {
		traces := tracesFor(opts, nt)
		agg := trace.Aggregate(traces)
		a.AddRow(nt.String(), fmt.Sprintf("%.2f", agg.AvgThroughput/1e6), fmt.Sprintf("%.2f", agg.ThroughputCV))
		var frac float64
		for i, tr := range traces {
			scheme := sim.Scheme{Name: "fixed", Recovery: true, SR: true, ABR: &abr.FixedRate{Index: 2}}
			res := sim.Run(sim.Config{Trace: tr, Seed: opts.Seed + int64(i) + int64(nt)*99, Chunks: chunks}, scheme)
			frac += res.RecoveredFrac
		}
		b.AddRow(nt.String(), fmt.Sprintf("%.1f", 100*frac/float64(len(traces))))
	}
	return a, b
}

// Fig14 produces the 5G time series: throughput and per-chunk QoE for the
// three recovery schemes over one trace.
func Fig14(opts Options) *Series {
	tr := trace.Generate(trace.Net5G, 240, opts.Seed+5).Downscale(1.5e6, 0.3e6, 5e6)
	set := sim.NewSchemeSet()
	schemes := []sim.Scheme{set.WithoutRecovery(), set.RecoveryAlone(), set.RecoveryAware()}
	chunks := chunksFor(opts)

	s := &Series{
		ID: "fig14", Title: "5G time series: throughput and per-chunk QoE",
		XLabel:  "t(s)",
		Columns: []string{"tput(Mbps)"},
		Notes:   []string{"shape: w/o RC unstable; RC alone dips; our stays highest"},
	}
	var results []*sim.Result
	for _, sc := range schemes {
		s.Columns = append(s.Columns, sc.Name)
		results = append(results, sim.Run(sim.Config{Trace: tr, Seed: opts.Seed, Chunks: chunks}, sc))
	}
	ref := results[0].Series
	tput := make([]float64, len(ref))
	for j, p := range ref {
		s.X = append(s.X, p.Time)
		tput[j] = p.ThroughputBps / 1e6
	}
	s.Y = append(s.Y, tput)
	for _, res := range results {
		col := make([]float64, len(ref))
		for j := range ref {
			if j < len(res.Series) {
				col[j] = res.Series[j].QoE
			}
		}
		s.Y = append(s.Y, col)
	}
	return s
}

// Fig15 evaluates recovery under lossy networks without FEC: the baseline
// reuses the previous frame for late/lost frames, exactly as §8.3
// describes.
func Fig15(opts Options) *Table {
	set := sim.NewSchemeSet()
	schemes := []sim.Scheme{set.WithoutRecoveryReuse(), set.RecoveryAlone(), set.RecoveryAware()}
	chunks := chunksFor(opts)
	t := &Table{
		ID:     "fig15",
		Title:  "QoE under lossy networks without FEC",
		Header: []string{"scheme", "3G", "4G", "5G", "WiFi"},
		Notes:  []string{"loss scaled 6×; shape: recovery's relative gain grows vs the clean setting (paper: +59–110%)"},
	}
	for _, sc := range schemes {
		row := []string{sc.Name}
		for _, nt := range trace.NetworkTypes() {
			var q float64
			traces := tracesFor(opts, nt)
			for i, tr := range traces {
				cfg := sim.Config{Trace: tr, Seed: opts.Seed + int64(i) + int64(nt)*99, Chunks: chunks, LossScale: 6}
				q += sim.Run(cfg, sc).QoE
			}
			row = append(row, fmt.Sprintf("%.3f", q/float64(len(traces))))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig17 evaluates the SR-only schemes (w/o SR, SR alone, NEMO, ours).
func Fig17(opts Options) *Table {
	set := sim.NewSchemeSet()
	t, _ := runSchemes(opts, []sim.Scheme{
		set.WithoutSR(), set.SRAlone(), set.NEMO(), set.SRAware(),
	}, "fig17", "QoE of SR-only schemes across networks")
	t.Notes = append(t.Notes, "shape: our > SR alone > w/o SR; our > NEMO")
	return t
}

// Fig18 evaluates the combined system (w/o both, both alone, NEMO, full).
func Fig18(opts Options) *Table {
	set := sim.NewSchemeSet()
	t, _ := runSchemes(opts, []sim.Scheme{
		set.Baseline(), set.BothAlone(), set.NEMO(), set.Full(),
	}, "fig18", "QoE of the combined recovery+SR system across networks")
	t.Notes = append(t.Notes, "shape: full system best everywhere (paper: +23.7–37.1% over w/o both)")
	return t
}

// Table2 reports the synthetic trace corpus statistics against the paper's
// Table 2 calibration targets.
func Table2(opts Options) *Table {
	corpus := trace.GenerateCorpus(opts.Seed)
	t := &Table{
		ID:     "tab2",
		Title:  "Network trace corpus",
		Header: []string{"", "3G", "4G", "5G", "WiFi"},
		Notes:  []string{"calibration targets from the paper's Table 2"},
	}
	var amount, dur, tput, loss []string
	for _, nt := range trace.NetworkTypes() {
		agg := trace.Aggregate(corpus[nt])
		amount = append(amount, fmt.Sprintf("%d", agg.Count))
		dur = append(dur, fmt.Sprintf("%.0f", agg.AvgDuration))
		tput = append(tput, fmt.Sprintf("%.1f", agg.AvgThroughput/1e6))
		loss = append(loss, fmt.Sprintf("%.1f", agg.AvgLossRate*100))
	}
	t.AddRow(append([]string{"Amount"}, amount...)...)
	t.AddRow(append([]string{"Avg. Duration (s)"}, dur...)...)
	t.AddRow(append([]string{"Avg. Throughput (Mbps)"}, tput...)...)
	t.AddRow(append([]string{"Avg. Packet loss rate (%)"}, loss...)...)
	return t
}
