package core

import (
	"testing"
	"time"

	"nerve/internal/par"
	"nerve/internal/vmath"
)

const budget30 = time.Second / 30

// TestTierGovernorSeeding: with no observations the governor trusts the
// device-model seeds — a float seed inside the budget opens the stream in
// float, one over it opens fixed (with a probe already scheduled).
func TestTierGovernorSeeding(t *testing.T) {
	g := newTierGovernor(budget30, 28*time.Millisecond, 12*time.Millisecond)
	if tier, probe := g.next(); tier != TierFloat || probe {
		t.Fatalf("in-budget float seed: first frame (%v, probe=%v), want (float, false)", tier, probe)
	}
	g = newTierGovernor(budget30, 40*time.Millisecond, 12*time.Millisecond)
	if tier, _ := g.next(); tier != TierFixed {
		t.Fatalf("over-budget float seed: first frame %v, want fixed", tier)
	}
}

// TestTierGovernorUpswitchIsImmediate: the first float observation over the
// budget replaces the seed and downswitches before another float frame runs
// — the governor never averages its way slowly out of a blown deadline.
func TestTierGovernorUpswitchIsImmediate(t *testing.T) {
	g := newTierGovernor(budget30, 28*time.Millisecond, 12*time.Millisecond)
	g.next()
	if !g.observe(TierFloat, false, 300*time.Millisecond) {
		t.Fatal("300 ms float frame did not switch the resident tier")
	}
	if tier, _ := g.next(); tier != TierFixed {
		t.Fatalf("frame after the blown deadline is %v, want fixed", tier)
	}
}

// TestTierGovernorProbeCadenceAndBackoff: resident fixed, the governor
// re-tries float only via scheduled single-frame probes, doubling the gap
// while probes keep failing (capped), and a probe under the low watermark
// re-enters float with the cadence reset.
func TestTierGovernorProbeCadenceAndBackoff(t *testing.T) {
	g := newTierGovernor(budget30, 28*time.Millisecond, 12*time.Millisecond)
	run := func(n int, tier Tier, cost time.Duration) {
		t.Helper()
		for i := 0; i < n; i++ {
			got, probe := g.next()
			if got != tier || probe {
				t.Fatalf("frame %d: (%v, probe=%v), want (%v, false)", g.frame, got, probe, tier)
			}
			g.observe(got, false, cost)
		}
	}
	probeAt := func(wantFrame int, cost time.Duration) bool {
		t.Helper()
		// Fixed frames up to the probe slot, then the probe itself.
		run(wantFrame-g.frame-1, TierFixed, 12*time.Millisecond)
		got, probe := g.next()
		if got != TierFloat || !probe {
			t.Fatalf("frame %d: (%v, probe=%v), want a float probe", g.frame, got, probe)
		}
		return g.observe(TierFloat, true, cost)
	}

	run(1, TierFloat, 12*time.Millisecond)  // frame 1: float, healthy
	run(1, TierFloat, 300*time.Millisecond) // frame 2: blown → fixed
	if probeAt(2+tierProbeGap0, budget30) { // over the 85% watermark
		t.Fatal("probe at the full budget re-entered float")
	}
	if probeAt(g.frame+2*tierProbeGap0, budget30) { // backoff doubled
		t.Fatal("second failing probe re-entered float")
	}
	reentry := g.frame + 4*tierProbeGap0
	if !probeAt(reentry, 20*time.Millisecond) { // well under the watermark
		t.Fatal("in-budget probe did not re-enter float")
	}
	run(1, TierFloat, 20*time.Millisecond)
	if g.probeGap != tierProbeGap0 {
		t.Fatalf("probe cadence after re-entry = %d, want reset to %d", g.probeGap, tierProbeGap0)
	}
}

// TestTierGovernorBackoffCap: the probe gap never exceeds tierProbeGapMax
// no matter how many probes fail.
func TestTierGovernorBackoffCap(t *testing.T) {
	g := newTierGovernor(budget30, 40*time.Millisecond, 12*time.Millisecond)
	for i := 0; i < 12; i++ {
		for {
			tier, probe := g.next()
			if probe {
				g.observe(TierFloat, true, 100*time.Millisecond)
				break
			}
			g.observe(tier, false, 12*time.Millisecond)
		}
	}
	if g.probeGap != tierProbeGapMax {
		t.Fatalf("probe gap after 12 failed probes = %d, want capped at %d", g.probeGap, tierProbeGapMax)
	}
}

// TestTierGovernorNeverFlaps: on a device whose float tier hovers just over
// the budget — the adversarial operating point for any threshold policy —
// the governor performs exactly one switch over thousands of frames: the
// probes keep failing the 85% watermark, so it never bounces back and
// forth. This is the hysteresis contract from DESIGN.md §10.
func TestTierGovernorNeverFlaps(t *testing.T) {
	g := newTierGovernor(budget30, 28*time.Millisecond, 12*time.Millisecond)
	switches := 0
	for i := 0; i < 5000; i++ {
		tier, probe := g.next()
		cost := 12 * time.Millisecond
		if tier == TierFloat {
			cost = budget30 + time.Millisecond // 34.3 ms: over budget, over watermark
		}
		if g.observe(tier, probe, cost) {
			switches++
		}
	}
	if switches != 1 {
		t.Fatalf("borderline stream switched tiers %d times over 5000 frames, want exactly 1", switches)
	}
	if g.probeGap != tierProbeGapMax {
		t.Fatalf("probe backoff did not saturate: gap %d", g.probeGap)
	}
}

// tierTrace runs a TierAuto client over sfs with a scripted cost function
// and records the tier of every displayed frame. When pipelined is true the
// schedule runs through Pipeline.Push/Flush with the given worker count.
func tierTrace(t *testing.T, sfs []*ServerFrame, pipelined bool, workers int,
	cost func(frame int, tier Tier) time.Duration) []Tier {
	t.Helper()
	defer par.SetWorkers(workers)()
	cli, err := NewClient(ClientConfig{
		W: tw, H: th, OutW: tw * 2, OutH: th * 2,
		EnableRecovery: true, EnableSR: true,
		Tier: TierAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli.govCost = cost
	trace := make([]Tier, 0, len(sfs))
	record := func(res *FrameResult) {
		if res == nil {
			return
		}
		if res.Tier != TierFloat && res.Tier != TierFixed {
			t.Fatalf("frame %d ran in tier %v", res.Index, res.Tier)
		}
		trace = append(trace, res.Tier)
		vmath.Put(res.Frame)
	}
	if !pipelined {
		for i := range sfs {
			res, err := cli.Next(pipelineInput(sfs, i))
			if err != nil {
				t.Fatal(err)
			}
			record(res)
		}
		return trace
	}
	p := NewPipeline(cli)
	for i := range sfs {
		res, err := p.Push(pipelineInput(sfs, i))
		if err != nil {
			t.Fatal(err)
		}
		record(res)
	}
	record(p.Flush())
	return trace
}

// TestTierGovernorDeterministicSwitchSequence: the switch sequence is a
// pure function of the observed frame costs — identical on every run and
// for every worker-pool size. The scripted cost makes float blow the budget
// from frame 20 on, so the trace must show a float prefix, one switch, and
// a fixed tail at the same index everywhere: pool-size-dependent or
// run-to-run wobble in the governor would surface as traces diverging.
func TestTierGovernorDeterministicSwitchSequence(t *testing.T) {
	const frames = 40
	sfs := pipelineServerFrames(t, frames)
	cost := func(frame int, tier Tier) time.Duration {
		if tier == TierFixed {
			return 10 * time.Millisecond
		}
		if frame < 20 {
			return 15 * time.Millisecond
		}
		return 200 * time.Millisecond
	}

	ref := tierTrace(t, sfs, true, 1, cost)
	for run := 0; run < 3; run++ {
		for _, workers := range []int{1, 2, 4} {
			got := tierTrace(t, sfs, true, workers, cost)
			if len(got) != len(ref) {
				t.Fatalf("workers=%d run=%d: %d frames, want %d", workers, run, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d run=%d: frame %d ran %v, reference ran %v — switch sequence is not deterministic",
						workers, run, i, got[i], ref[i])
				}
			}
		}
	}

	// The trace must actually contain the scripted transition — a trivially
	// constant trace would pass the comparison above without testing it.
	firstFixed := -1
	for i, tier := range ref {
		if tier == TierFixed {
			firstFixed = i
			break
		}
	}
	if firstFixed <= 0 || firstFixed > 24 {
		t.Fatalf("first fixed frame at %d, want shortly after the scripted overload at frame 20", firstFixed)
	}
	for i := firstFixed; i < len(ref); i++ {
		if ref[i] != TierFixed {
			t.Fatalf("frame %d back in float after the switch — probes are not due for %d frames", i, tierProbeGap0)
		}
	}

	// The sequential driver observes one frame earlier than the pipelined
	// one, so its switch may land a frame sooner — but it must be exactly
	// as deterministic.
	seqRef := tierTrace(t, sfs, false, 1, cost)
	seqAgain := tierTrace(t, sfs, false, 1, cost)
	for i := range seqRef {
		if seqRef[i] != seqAgain[i] {
			t.Fatalf("sequential driver diverged from itself at frame %d", i)
		}
	}
}

// TestTierAutoPinnedCountersAndClasses sanity-checks the auto client
// end-to-end: every frame reports a concrete tier and the class ladder
// still adds up.
func TestTierAutoFrameAccounting(t *testing.T) {
	const frames = 12
	sfs := pipelineServerFrames(t, frames)
	trace := tierTrace(t, sfs, false, 1, func(frame int, tier Tier) time.Duration {
		return 5 * time.Millisecond // everything healthy: stay float
	})
	if len(trace) != frames {
		t.Fatalf("traced %d frames, want %d", len(trace), frames)
	}
	for i, tier := range trace {
		if tier != TierFloat {
			t.Fatalf("healthy stream ran frame %d in %v, want float", i, tier)
		}
	}
}

// TestTierSwitchSteadyStateZeroPlaneAllocs extends the pooled-memory proof
// across tier boundaries: a warmed TierAuto pipeline that has visited both
// tiers (and derived codes locally on both) must keep allocating
// zero plane backing arrays even while the governor switches float→fixed
// and probes back mid-measurement. The probe cadence is shrunk so a full
// float→fixed→probe→float cycle fits in the measured window.
//
// The pool is pinned to one worker (par.Go inline — the schedule the
// 1-core deadline gate measures): with real overlap AND per-frame tier
// changes, the instantaneous per-bucket pool demand depends on how
// ingest(n+1) and enhance(n) interleave, so "zero misses" is not a
// deterministic property there — a warm run can't provision for every
// scheduler interleaving. The overlapped schedule keeps its own zero-alloc
// proof for pinned tiers in TestPipelinedSteadyStateZeroPlaneAllocs.
func TestTierSwitchSteadyStateZeroPlaneAllocs(t *testing.T) {
	defer par.SetWorkers(1)()

	const frames = 72
	const warm = 33
	sfs := pipelineServerFrames(t, frames)
	cli, err := NewClient(ClientConfig{
		W: tw, H: th, OutW: tw * 2, OutH: th * 2,
		EnableRecovery: true, EnableSR: true,
		Tier: TierAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Short probe cadence (test-only) and a cost script with an overload
	// window in the warm-up and another inside the measured window: each
	// drives float→fixed at its onset, a failed probe or two, then a
	// successful probe back to float once the window passes.
	cli.gov.probeGap, cli.gov.probeGap0 = 8, 8
	overload := func(frame int) bool {
		return (frame >= 15 && frame < 22) || (frame >= 45 && frame < 52)
	}
	cli.govCost = func(frame int, tier Tier) time.Duration {
		if tier == TierFixed {
			return 10 * time.Millisecond
		}
		if overload(frame) {
			return 200 * time.Millisecond
		}
		return 15 * time.Millisecond
	}

	p := NewPipeline(cli)
	var tiers []Tier
	step := func(i int) {
		in := pipelineInput(sfs, i)
		if i%7 == 3 {
			// Drop the side-channel code so the client derives it locally:
			// Extract has to stay warm and allocation-free on both tiers.
			in.Code = nil
		}
		res, err := p.Push(in)
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			tiers = append(tiers, res.Tier)
			vmath.Put(res.Frame)
		}
	}

	for i := 0; i < warm; i++ {
		step(i)
	}
	before := vmath.PlaneAllocs()
	for i := warm; i < frames; i++ {
		step(i)
	}
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("tier-switching pipeline allocated %d plane backing arrays over %d frames, want 0", d, frames-warm)
	}
	if last := p.Flush(); last != nil {
		tiers = append(tiers, last.Tier)
		vmath.Put(last.Frame)
	}

	// The proof only counts if the measured window really crossed tiers:
	// demand a float→fixed boundary after the warm frames and at least one
	// fixed→float boundary (the successful probe) somewhere in the trace.
	downAfterWarm, up := false, false
	for i := 1; i < len(tiers); i++ {
		if tiers[i-1] == TierFloat && tiers[i] == TierFixed && i >= warm {
			downAfterWarm = true
		}
		if tiers[i-1] == TierFixed && tiers[i] == TierFloat {
			up = true
		}
	}
	if !downAfterWarm || !up {
		t.Fatalf("measured window did not exercise both switch directions (down-after-warm=%v, up=%v): %v",
			downAfterWarm, up, tiers)
	}
}
