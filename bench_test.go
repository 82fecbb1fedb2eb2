// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md §3 for the experiment index) plus the
// design-choice ablations. Each iteration regenerates the experiment at
// reduced (Quick) scale; run the nervebench command with the default
// options for paper-scale parameters.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig7Recovery
package nerve

import (
	"io"
	"testing"

	"nerve/internal/par"
)

// benchOpts is the reduced-scale configuration used by the benchmarks.
var benchOpts = ExperimentOptions{Quick: true, Seed: 1}

func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(id, benchOpts, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// ---- Motivation (§3) ----

// BenchmarkFig1FrameLoss regenerates Fig. 1: frame loss vs FEC redundancy.
func BenchmarkFig1FrameLoss(b *testing.B) { runExp(b, "fig1") }

// BenchmarkFig2QoEFEC regenerates Fig. 2: QoE vs FEC redundancy ± recovery.
func BenchmarkFig2QoEFEC(b *testing.B) { runExp(b, "fig2") }

// BenchmarkTable1SRMethods regenerates Table 1: the SR method comparison.
func BenchmarkTable1SRMethods(b *testing.B) { runExp(b, "tab1") }

// ---- DNN quality (§8.2) ----

// BenchmarkFig4aRecoveryDecay regenerates Fig. 4a.
func BenchmarkFig4aRecoveryDecay(b *testing.B) { runExp(b, "fig4a") }

// BenchmarkFig4bRateQuality regenerates Fig. 4b.
func BenchmarkFig4bRateQuality(b *testing.B) { runExp(b, "fig4b") }

// BenchmarkFig7Recovery regenerates Fig. 7: full-frame prediction quality.
// All per-pixel kernels and the harness fan-out run on the shared worker
// pool (internal/par) at its default size.
func BenchmarkFig7Recovery(b *testing.B) { runExp(b, "fig7") }

// BenchmarkFig7RecoverySequential is the same experiment with the pool
// pinned to one worker — the sequential baseline the CI bench artifact
// records alongside BenchmarkFig7Recovery to track the parallel speedup.
func BenchmarkFig7RecoverySequential(b *testing.B) {
	defer par.SetWorkers(1)()
	runExp(b, "fig7")
}

// BenchmarkFig8PartialRecovery regenerates Fig. 8: partial recovery.
func BenchmarkFig8PartialRecovery(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFig10SR regenerates Fig. 10: SR quality per input rung.
func BenchmarkFig10SR(b *testing.B) { runExp(b, "fig10") }

// ---- System QoE (§8.3) ----

// BenchmarkTable2Traces regenerates Table 2: the trace corpus statistics.
func BenchmarkTable2Traces(b *testing.B) { runExp(b, "tab2") }

// BenchmarkFig12RecoveryQoE regenerates Fig. 12: recovery-only schemes.
func BenchmarkFig12RecoveryQoE(b *testing.B) { runExp(b, "fig12") }

// BenchmarkTable3RecoveredFrames regenerates Table 3.
func BenchmarkTable3RecoveredFrames(b *testing.B) { runExp(b, "tab3") }

// BenchmarkFig13RecoveredShare regenerates Fig. 13 (throughput stats and
// recovered-frame percentages).
func BenchmarkFig13RecoveredShare(b *testing.B) { runExp(b, "fig13") }

// BenchmarkFig14TimeSeries regenerates Fig. 14: the 5G time series.
func BenchmarkFig14TimeSeries(b *testing.B) { runExp(b, "fig14") }

// BenchmarkFig15LossyNoFEC regenerates Fig. 15: lossy networks, no FEC.
func BenchmarkFig15LossyNoFEC(b *testing.B) { runExp(b, "fig15") }

// BenchmarkFig16JointFEC regenerates Fig. 16: joint FEC + recovery.
func BenchmarkFig16JointFEC(b *testing.B) { runExp(b, "fig16") }

// BenchmarkFig17SRQoE regenerates Fig. 17: SR-only schemes (incl. NEMO).
func BenchmarkFig17SRQoE(b *testing.B) { runExp(b, "fig17") }

// BenchmarkFig18Combined regenerates Fig. 18: the combined system.
func BenchmarkFig18Combined(b *testing.B) { runExp(b, "fig18") }

// ---- Latency and resources (§8.4) ----

// BenchmarkLatencyModel regenerates the §8.4 latency table.
func BenchmarkLatencyModel(b *testing.B) { runExp(b, "lat") }

// BenchmarkCPUEnergy regenerates the §8.4 CPU/energy table.
func BenchmarkCPUEnergy(b *testing.B) { runExp(b, "cpu") }

// ---- Calibration and ablations (DESIGN.md §4) ----

// BenchmarkCalibration regenerates the quality-map calibration that ties
// the streaming simulator to the image pipeline.
func BenchmarkCalibration(b *testing.B) { runExp(b, "calibrate") }

// BenchmarkAblationCodeResolution sweeps the binary point code geometry.
func BenchmarkAblationCodeResolution(b *testing.B) { runExp(b, "abl-code") }

// BenchmarkAblationWarpResolution sweeps the warping resolution (§7).
func BenchmarkAblationWarpResolution(b *testing.B) { runExp(b, "abl-warp") }

// BenchmarkAblationPredictor compares EWMA and Holt–Winters predictors.
func BenchmarkAblationPredictor(b *testing.B) { runExp(b, "abl-pred") }

// BenchmarkAblationFECScheme compares RS against interleaved XOR parity.
func BenchmarkAblationFECScheme(b *testing.B) { runExp(b, "abl-fec") }

// BenchmarkAblationSharedFlow costs shared vs per-scale flow modules (§5).
func BenchmarkAblationSharedFlow(b *testing.B) { runExp(b, "abl-flow") }

// BenchmarkAblationBufferSize sweeps the client buffer cap.
func BenchmarkAblationBufferSize(b *testing.B) { runExp(b, "abl-buffer") }

// ---- Component micro-benchmarks ----

// BenchmarkEndToEndFrame measures one complete server→client frame at the
// transmission resolution (encode + code extraction + decode + recovery
// path on loss).
func BenchmarkEndToEndFrame(b *testing.B) {
	const w, h = 320, 180
	gen := NewGenerator(Categories()[2], 1)
	srv, err := NewServer(ServerConfig{W: w, H: h, TargetBitrate: 1.2e6})
	if err != nil {
		b.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{W: w, H: h, EnableRecovery: true})
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]*Plane, 16)
	for i := range frames {
		frames[i] = gen.Render(i, w, h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf, err := srv.Process(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		in := ClientInput{Encoded: sf.Encoded, Code: sf.Code}
		if i%5 == 4 {
			in.Encoded = nil // exercise the recovery path
		}
		if _, err := cli.Next(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingSession measures one full chunk-level session of the
// complete system over a 5G trace.
func BenchmarkStreamingSession(b *testing.B) {
	tr := GenerateTrace(Net5G, 240, 1).Downscale(1.5e6, 0.3e6, 5e6)
	set := NewSchemeSet()
	scheme := set.Full()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(SimConfig{Trace: tr, Seed: int64(i)}, scheme)
	}
}
