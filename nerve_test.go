package nerve

import (
	"bytes"
	"strings"
	"testing"

	"nerve/internal/core"
)

func TestFacadeEndToEnd(t *testing.T) {
	const w, h = 160, 96
	gen := NewGenerator(Categories()[3], 1)
	srv, err := NewServer(ServerConfig{W: w, H: h, TargetBitrate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{W: w, H: h, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		src := gen.Render(i, w, h)
		sf, err := srv.Process(src)
		if err != nil {
			t.Fatal(err)
		}
		in := ClientInput{Encoded: sf.Encoded, Code: sf.Code}
		if i == 4 {
			in.Encoded = nil
		}
		res, err := cli.Next(in)
		if err != nil {
			t.Fatal(err)
		}
		if p := PSNR(src, res.Frame); p < 20 {
			t.Fatalf("frame %d: %v dB", i, p)
		}
		if s := SSIM(src, res.Frame); s <= 0 || s > 1 {
			t.Fatalf("frame %d: SSIM %v", i, s)
		}
	}
	if cli.RecoveredFraction() <= 0 {
		t.Fatal("no recovery recorded")
	}
}

// TestFacadeFixedTier: a root-package client built from a ClientConfig
// with no tier runs the byte path, the only tier there is.
func TestFacadeFixedTier(t *testing.T) {
	const w, h = 160, 96
	gen := NewGenerator(Categories()[3], 1)
	srv, err := NewServer(ServerConfig{W: w, H: h, TargetBitrate: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{W: w, H: h, EnableRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sf, err := srv.Process(gen.Render(i, w, h))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cli.Next(ClientInput{Encoded: sf.Encoded, Code: sf.Code})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != core.TierFixed {
			t.Fatalf("frame %d ran in tier %v, want %v", i, res.Tier, core.TierFixed)
		}
	}
}

func TestFacadeLadder(t *testing.T) {
	rs := Resolutions()
	if len(rs) != 5 || rs[0] != R240 || rs[4] != R1080 {
		t.Fatalf("ladder: %v", rs)
	}
	if len(Categories()) != 10 {
		t.Fatal("categories")
	}
}

func TestFacadeSimulation(t *testing.T) {
	tr := GenerateTrace(Net4G, 120, 1).Downscale(1.5e6, 0.3e6, 5e6)
	set := NewSchemeSet()
	res := Simulate(SimConfig{Trace: tr, Seed: 1}, set.Full())
	if len(res.Series) == 0 {
		t.Fatal("no chunks simulated")
	}
	base := Simulate(SimConfig{Trace: tr, Seed: 1}, set.Baseline())
	if res.QoE <= base.QoE {
		t.Fatalf("full system (%v) not above baseline (%v)", res.QoE, base.QoE)
	}
}

func TestFacadeABRConstructors(t *testing.T) {
	for _, a := range []ABRAlgorithm{NewMPC(), NewRateBased(), NewBufferBased()} {
		a.Reset()
		if a.Name() == "" {
			t.Fatal("unnamed algorithm")
		}
	}
	if DefaultFECPlanner().Redundancy(0.01) <= 0 {
		t.Fatal("planner")
	}
	if !IPhone12().SupportsRealtime(R1080) {
		t.Fatal("device model")
	}
}

func TestFacadeStandaloneComponents(t *testing.T) {
	const w, h = 96, 64
	gen := NewGenerator(Categories()[2], 3)
	prev := gen.Render(10, w, h)
	cur := gen.Render(11, w, h)

	ext := NewCodeExtractor(0, 0)
	pc := ext.Extract(prev)
	// The current frame's code arrives over the side channel.
	cc, err := DecompressCode(ext.Extract(cur).Compress())
	if err != nil {
		t.Fatal(err)
	}
	if pc.SizeBytes() != 1024 || cc.SizeBytes() != 1024 {
		t.Fatalf("code sizes %d, %d", pc.SizeBytes(), cc.SizeBytes())
	}
	rec := NewRecoverer(RecoveryConfig{OutW: w, OutH: h})
	out := rec.Recover(RecoveryInput{Prev: prev, PrevCode: pc, CurCode: cc})
	if out.W != w || out.H != h {
		t.Fatal("recovery geometry")
	}
	srr := NewSuperResolver(SRConfig{OutW: w * 2, OutH: h * 2})
	up := srr.Upscale(prev)
	if up.W != w*2 {
		t.Fatal("SR geometry")
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	var buf bytes.Buffer
	if err := RunExperiment("lat", ExperimentOptions{Quick: true, Seed: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "30fps") {
		t.Fatalf("unexpected output: %q", buf.String())
	}
	if err := RunExperiment("bogus", ExperimentOptions{}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
