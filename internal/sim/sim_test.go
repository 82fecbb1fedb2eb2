package sim

import (
	"testing"

	"nerve/internal/abr"
	"nerve/internal/fec"
	"nerve/internal/trace"
)

// downTrace returns a downscaled trace as §8.3 prescribes.
func downTrace(n trace.NetworkType, seed int64) *trace.Trace {
	tr := trace.Generate(n, 240, seed)
	return tr.Downscale(1.5e6, 0.3e6, 5e6)
}

func TestRunDeterministic(t *testing.T) {
	tr := downTrace(trace.Net4G, 1)
	set := NewSchemeSet()
	a := Run(Config{Trace: tr, Seed: 7}, set.Full())
	b := Run(Config{Trace: tr, Seed: 7}, set.Full())
	if a.QoE != b.QoE || a.RecoveredFrac != b.RecoveredFrac {
		t.Fatalf("non-deterministic: %v vs %v", a.QoE, b.QoE)
	}
}

func TestRecoverySchemesOrdering(t *testing.T) {
	// Fig. 12 shape: ours > RC alone > w/o RC, averaged over traces.
	set := NewSchemeSet()
	var qNo, qAlone, qOur float64
	const n = 12
	for s := int64(0); s < n; s++ {
		tr := downTrace(trace.Net5G, 10+s)
		cfg := Config{Trace: tr, Seed: 100 + s}
		qNo += Run(cfg, set.WithoutRecovery()).QoE
		qAlone += Run(cfg, set.RecoveryAlone()).QoE
		qOur += Run(cfg, set.RecoveryAware()).QoE
	}
	t.Logf("w/o RC %.3f, RC alone %.3f, ours %.3f", qNo/n, qAlone/n, qOur/n)
	if !(qOur > qAlone && qAlone > qNo) {
		t.Fatalf("ordering violated: our=%.3f alone=%.3f none=%.3f", qOur/n, qAlone/n, qNo/n)
	}
}

func TestSRSchemesOrdering(t *testing.T) {
	// Fig. 17 shape: ours > NEMO > SR alone > w/o SR (allow NEMO/SR-alone
	// to be close).
	set := NewSchemeSet()
	var qNo, qAlone, qNemo, qOur float64
	const n = 12
	for s := int64(0); s < n; s++ {
		tr := downTrace(trace.Net4G, 30+s)
		cfg := Config{Trace: tr, Seed: 200 + s}
		qNo += Run(cfg, set.WithoutSR()).QoE
		qAlone += Run(cfg, set.SRAlone()).QoE
		qNemo += Run(cfg, set.NEMO()).QoE
		qOur += Run(cfg, set.SRAware()).QoE
	}
	t.Logf("w/o SR %.3f, SR alone %.3f, NEMO %.3f, ours %.3f", qNo/n, qAlone/n, qNemo/n, qOur/n)
	if qOur <= qNo {
		t.Fatalf("SR-aware (%.3f) not above w/o SR (%.3f)", qOur/n, qNo/n)
	}
	if qAlone <= qNo {
		t.Fatalf("SR alone (%.3f) not above w/o SR (%.3f)", qAlone/n, qNo/n)
	}
	if qOur <= qNemo {
		t.Fatalf("ours (%.3f) not above NEMO (%.3f)", qOur/n, qNemo/n)
	}
}

func TestFullSystemBeatsBaseline(t *testing.T) {
	// Fig. 18 shape across all four network types.
	set := NewSchemeSet()
	for _, nt := range trace.NetworkTypes() {
		var qBase, qBoth, qNemo, qFull float64
		const n = 8
		for s := int64(0); s < n; s++ {
			tr := downTrace(nt, 50+s)
			cfg := Config{Trace: tr, Seed: 300 + s}
			qBase += Run(cfg, set.Baseline()).QoE
			qBoth += Run(cfg, set.BothAlone()).QoE
			qNemo += Run(cfg, set.NEMO()).QoE
			qFull += Run(cfg, set.Full()).QoE
		}
		t.Logf("%v: base %.3f, both-alone %.3f, NEMO %.3f, full %.3f", nt, qBase/n, qBoth/n, qNemo/n, qFull/n)
		if qFull <= qBase {
			t.Errorf("%v: full (%.3f) not above baseline (%.3f)", nt, qFull/n, qBase/n)
		}
		if qFull <= qBoth {
			t.Errorf("%v: full (%.3f) not above both-alone (%.3f)", nt, qFull/n, qBoth/n)
		}
		if qFull <= qNemo {
			t.Errorf("%v: full (%.3f) not above NEMO (%.3f)", nt, qFull/n, qNemo/n)
		}
	}
}

func TestRecoveredFracHighestOn5G(t *testing.T) {
	// Fig. 13b: 5G's fluctuation forces the most recoveries. Measured at
	// a fixed mid-ladder rate so ABR feedback (which hides volatility by
	// retreating to the lowest rung) does not mask the network effect.
	frac := map[trace.NetworkType]float64{}
	for _, nt := range trace.NetworkTypes() {
		var f float64
		const n = 10
		for s := int64(0); s < n; s++ {
			scheme := Scheme{Name: "fixed", Recovery: true, ABR: &abr.FixedRate{Index: 2}}
			res := Run(Config{Trace: downTrace(nt, 70+s), Seed: 400 + s}, scheme)
			f += res.RecoveredFrac
		}
		frac[nt] = f / n
	}
	t.Logf("recovered fraction: 3G=%.3f 4G=%.3f 5G=%.3f WiFi=%.3f",
		frac[trace.Net3G], frac[trace.Net4G], frac[trace.Net5G], frac[trace.NetWiFi])
	for _, nt := range []trace.NetworkType{trace.Net3G, trace.Net4G, trace.NetWiFi} {
		if frac[trace.Net5G] < frac[nt] {
			t.Errorf("5G recovered frac %.3f below %v %.3f", frac[trace.Net5G], nt, frac[nt])
		}
	}
}

func TestTable3RecoveredFrameQoE(t *testing.T) {
	// Table 3 shape: w/o RC strongly negative; RC alone near zero; ours
	// highest.
	set := NewSchemeSet()
	var qNo, qAlone, qOur float64
	const n = 10
	for s := int64(0); s < n; s++ {
		tr := downTrace(trace.Net5G, 90+s)
		cfg := Config{Trace: tr, Seed: 500 + s}
		qNo += Run(cfg, set.WithoutRecovery()).RecoveredFrameQoE
		qAlone += Run(cfg, set.RecoveryAlone()).RecoveredFrameQoE
		qOur += Run(cfg, set.RecoveryAware()).RecoveredFrameQoE
	}
	t.Logf("recovered-frame QoE: w/o RC %.2f, alone %.2f, ours %.2f", qNo/n, qAlone/n, qOur/n)
	if !(qOur > qAlone && qAlone > qNo) {
		t.Fatalf("Table 3 ordering violated: %v %v %v", qNo/n, qAlone/n, qOur/n)
	}
	if qNo/n > 0 {
		t.Errorf("w/o RC recovered-frame QoE should be negative, got %.2f", qNo/n)
	}
}

func TestLossyNetworkAmplifiesRecoveryGain(t *testing.T) {
	// Fig. 15: without FEC under heavier loss, recovery's absolute QoE
	// gain over the reuse baseline ("reuse the last frame when a video
	// frame is late or lost") grows versus the clean setting.
	// Matched ABRs (both unaware), relative gain as the paper reports.
	set := NewSchemeSet()
	gain := func(lossScale float64) float64 {
		var qNo, qRC float64
		const n = 8
		for s := int64(0); s < n; s++ {
			tr := downTrace(trace.Net4G, 110+s)
			cfg := Config{Trace: tr, Seed: 600 + s, LossScale: lossScale}
			qNo += Run(cfg, set.WithoutRecoveryReuse()).QoE
			qRC += Run(cfg, set.RecoveryAlone()).QoE
		}
		if qNo < 0.01 {
			qNo = 0.01
		}
		return (qRC - qNo) / qNo
	}
	clean := gain(1)
	lossy := gain(6)
	t.Logf("relative recovery gain over reuse baseline: clean %.1f%%, lossy %.1f%%", clean*100, lossy*100)
	if lossy <= 0 {
		t.Fatalf("recovery not beneficial under loss: %.3f", lossy)
	}
	if lossy <= clean {
		t.Fatalf("gain did not grow with loss: %.3f vs %.3f", lossy, clean)
	}
}

// jointPlanner builds a loss→redundancy table by simulating QoE, the §4
// procedure.
func jointPlanner(t *testing.T, scheme func(SchemeSet) Scheme) *fec.Planner {
	t.Helper()
	losses := []float64{0.01, 0.05, 0.1}
	reds := []float64{0, 0.1, 0.25, 0.5}
	planner, err := fec.BuildPlanner(losses, reds, func(loss, red float64) float64 {
		set := NewSchemeSet()
		set.UseFEC = true
		sc := scheme(set)
		sc.Planner = fec.NewPlannerFromTable(map[float64]float64{0: red})
		tr := downTrace(trace.Net5G, 777)
		// Match the loss scale so LossAt ≈ loss on average.
		scale := loss / tr.Stat().AvgLossRate
		return Run(Config{Trace: tr, Seed: 888, LossScale: scale, Chunks: 30}, sc).QoE
	})
	if err != nil {
		t.Fatal(err)
	}
	return planner
}

func TestFECImprovesLossyQoE(t *testing.T) {
	// Fig. 16: with heavy loss, jointly planned FEC beats no FEC for the
	// full system.
	planner := jointPlanner(t, func(s SchemeSet) Scheme { return s.Full() })
	setNoFEC := NewSchemeSet()
	setFEC := NewSchemeSet()
	setFEC.UseFEC = true
	var qNo, qFEC float64
	const n = 8
	for s := int64(0); s < n; s++ {
		tr := downTrace(trace.Net5G, 130+s)
		cfg := Config{Trace: tr, Seed: 700 + s, LossScale: 6}
		qNo += Run(cfg, setNoFEC.Full()).QoE
		fecScheme := setFEC.Full()
		fecScheme.Planner = planner
		qFEC += Run(cfg, fecScheme).QoE
	}
	t.Logf("lossy 5G: no FEC %.3f, jointly planned FEC %.3f", qNo/n, qFEC/n)
	if qFEC/n < qNo/n-0.05 {
		t.Fatalf("joint FEC planning hurt: %.3f vs %.3f", qFEC/n, qNo/n)
	}
}

func TestSeriesAndRedundancyBookkeeping(t *testing.T) {
	set := NewSchemeSet()
	set.UseFEC = true
	tr := downTrace(trace.Net4G, 3)
	res := Run(Config{Trace: tr, Seed: 9}, set.Full())
	if len(res.Series) == 0 {
		t.Fatal("no series")
	}
	prev := -1.0
	for _, p := range res.Series {
		if p.Time < prev {
			t.Fatal("series time not monotone")
		}
		prev = p.Time
		if p.RateIndex < 0 || p.RateIndex > 4 {
			t.Fatalf("bad rate index %d", p.RateIndex)
		}
	}
	if res.MeanRedundancy <= 0 {
		t.Fatal("FEC scheme recorded no redundancy")
	}
	if res.Session == nil || res.Session.Chunks == nil {
		t.Fatal("session not recorded")
	}
}

func TestConfigDefaults(t *testing.T) {
	tr := downTrace(trace.Net3G, 5)
	cfg := Config{Trace: tr}.withDefaults()
	if cfg.ChunkSeconds != 4 || cfg.Chunks != 60 || cfg.MaxBufferSec != 8 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.Quality == nil || cfg.Device == nil {
		t.Fatal("defaults missing quality/device")
	}
}
