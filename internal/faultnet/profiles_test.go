package faultnet

import (
	"net/http"
	"testing"
	"time"
)

func decideReq(t *testing.T) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://example/segment?rate=0&n=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// drawFaults runs n requests through the transport's fault decision only
// (no sleeping, no sockets) and tallies what was injected.
func drawFaults(t *testing.T, tr *Transport, n int) (resets, errors, truncs int, latencies []time.Duration) {
	t.Helper()
	req := decideReq(t)
	for i := 0; i < n; i++ {
		f := tr.decide(req)
		latencies = append(latencies, f.latency)
		switch {
		case f.reset:
			resets++
		case f.status > 0:
			errors++
		case f.truncate >= 0:
			truncs++
		}
	}
	return
}

func TestProfileClean(t *testing.T) {
	p, err := ProfileByName("clean")
	if err != nil {
		t.Fatal(err)
	}
	resets, errors, truncs, lats := drawFaults(t, New(nil, p.Config(7)), 500)
	if resets+errors+truncs != 0 {
		t.Fatalf("clean profile injected %d/%d/%d faults", resets, errors, truncs)
	}
	for _, l := range lats {
		if l != 0 {
			t.Fatalf("clean profile injected latency %v", l)
		}
	}
}

// TestProfileLossyRates checks the lossy profile's documented memoryless
// rates under a fixed seed. The draw is deterministic, so the tolerance
// only needs to absorb binomial spread once, not flakiness.
func TestProfileLossyRates(t *testing.T) {
	p, err := ProfileByName("lossy")
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	resets, errors, truncs, lats := drawFaults(t, New(nil, p.Config(42)), n)
	check := func(name string, got int, want float64) {
		t.Helper()
		rate := float64(got) / n
		if rate < want/2 || rate > want*2 {
			t.Errorf("%s rate %.4f, want within [%.4f, %.4f]", name, rate, want/2, want*2)
		}
	}
	check("reset", resets, p.cfg.ResetRate)
	check("server-error", errors, p.cfg.ServerErrorRate)
	check("truncate", truncs, p.cfg.TruncateRate)
	for i, l := range lats {
		if l < p.cfg.Latency || l >= p.cfg.Latency+p.cfg.LatencyJitter {
			t.Fatalf("request %d latency %v outside [%v, %v)", i, l, p.cfg.Latency, p.cfg.Latency+p.cfg.LatencyJitter)
		}
	}
}

// TestProfileHilatLatency checks the high-latency profile's delay window
// and that it stays fault-free.
func TestProfileHilatLatency(t *testing.T) {
	p, err := ProfileByName("high-latency") // alias for "hilat"
	if err != nil {
		t.Fatal(err)
	}
	resets, errors, truncs, lats := drawFaults(t, New(nil, p.Config(3)), 1000)
	if resets+errors+truncs != 0 {
		t.Fatalf("hilat injected %d/%d/%d faults", resets, errors, truncs)
	}
	var min, max, sum time.Duration
	min = time.Hour
	for _, l := range lats {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	lo, hi := p.cfg.Latency, p.cfg.Latency+p.cfg.LatencyJitter
	if min < lo || max >= hi {
		t.Fatalf("latency range [%v, %v] outside documented [%v, %v)", min, max, lo, hi)
	}
	// Uniform jitter: the mean should sit near the middle of the window.
	mean := sum / time.Duration(len(lats))
	mid := lo + p.cfg.LatencyJitter/2
	if d := mean - mid; d < -5*time.Millisecond || d > 5*time.Millisecond {
		t.Fatalf("mean latency %v far from window midpoint %v", mean, mid)
	}
}

// TestProfileBurstyWindows proves the burst gating: every fault lands in
// the first BurstOn requests of a cycle, and inside those windows the
// fault rate is near the configured (heavy) rates.
func TestProfileBurstyWindows(t *testing.T) {
	p, err := ProfileByName("bursty")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(nil, p.Config(11))
	req := decideReq(t)
	cycle, on := p.cfg.BurstCycle, p.cfg.BurstOn
	const cycles = 40
	inBurstFaults, inBurst := 0, 0
	for i := 0; i < cycles*cycle; i++ {
		f := tr.decide(req)
		faulted := f.reset || f.status > 0 || f.truncate >= 0
		if i%cycle >= on {
			if faulted {
				t.Fatalf("request %d (outside burst window) faulted", i)
			}
			continue
		}
		inBurst++
		if faulted {
			inBurstFaults++
		}
	}
	wantRate := p.cfg.ResetRate + (1-p.cfg.ResetRate)*p.cfg.TruncateRate // reset shadows truncate in the switch
	rate := float64(inBurstFaults) / float64(inBurst)
	if rate < wantRate/2 || rate > 1 {
		t.Fatalf("in-burst fault rate %.3f, want ≥ %.3f", rate, wantRate/2)
	}
}

// TestProfileDeterministic: same profile + same seed ⇒ identical fault
// schedule; a different seed diverges.
func TestProfileDeterministic(t *testing.T) {
	p, err := ProfileByName("lossy")
	if err != nil {
		t.Fatal(err)
	}
	req := decideReq(t)
	draw := func(seed int64) []fault {
		tr := New(nil, p.Config(seed))
		out := make([]fault, 600)
		for i := range out {
			out[i] = tr.decide(req)
		}
		return out
	}
	a, b, c := draw(5), draw(5), draw(6)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 600-request schedules")
	}
}

func TestProfileByNameErrors(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, name := range ProfileNames() {
		if _, err := ProfileByName(name); err != nil {
			t.Fatalf("canonical name %q rejected: %v", name, err)
		}
	}
}

func TestSeedForSpread(t *testing.T) {
	seen := map[int64]bool{}
	for run := int64(1); run <= 3; run++ {
		for c := 0; c < 200; c++ {
			s := SeedFor(run, c)
			if s == 0 {
				t.Fatalf("SeedFor(%d, %d) = 0", run, c)
			}
			if seen[s] {
				t.Fatalf("SeedFor collision at run %d client %d", run, c)
			}
			seen[s] = true
		}
	}
	if SeedFor(1, 5) != SeedFor(1, 5) {
		t.Fatal("SeedFor not stable")
	}
}
