package core

import (
	"fmt"
	"time"

	"nerve/internal/telemetry"
)

// Tier selects the client's kernel tier policy.
type Tier int

const (
	// TierFloat pins the float32 kernels for every frame — the reference
	// tier and the zero value of ClientConfig.Tier.
	TierFloat Tier = iota
	// TierFixed pins the integer/SWAR kernel tier for every frame.
	TierFixed
	// TierAuto lets a deadline governor pick float or fixed per frame:
	// float whenever its projected cost fits the 33 ms frame budget, fixed
	// under deadline pressure, with hysteresis so the choice never flaps.
	TierAuto
)

func (t Tier) String() string {
	switch t {
	case TierFloat:
		return "float"
	case TierFixed:
		return "fixed"
	case TierAuto:
		return "auto"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Per-session tier accounting (OBSERVABILITY.md, snapshot schema 3).
var (
	cTierFloatFrames = telemetry.NewCounter("tier.float_frames")
	cTierFixedFrames = telemetry.NewCounter("tier.fixed_frames")
	cTierSwitches    = telemetry.NewCounter("tier.switches")
	cTierProbes      = telemetry.NewCounter("tier.probes")
)

// Governor tuning. The budget is the 30 FPS deadline; the low watermark is
// the fraction of it a float probe must beat before the governor hands the
// stream back to the float tier — the hysteresis band between "leave float"
// (> budget) and "re-enter float" (≤ 85% of budget) is what keeps a
// borderline device from flapping. Probes start at one every 120 frames
// (4 s at 30 FPS) and back off by doubling to one every 1920 while they
// keep failing, so a device that is simply too slow for float pays a probe
// frame less and less often.
const (
	tierLowWatermark = 0.85
	tierProbeGap0    = 120
	tierProbeGapMax  = 1920
)

// tierGovernor is the per-frame float↔fixed policy of TierAuto. It is a
// pure state machine over observed frame costs: all input arrives through
// next (one call per frame, at ingest) and observe (one call per completed
// frame, in playout order), both on the client's caller goroutine, and the
// decision is a function of nothing else — no clocks, no pool geometry, no
// goroutine timing. That purity is load-bearing: it makes the switch
// sequence reproducible run to run and identical for any worker-pool size
// (TestTierGovernorDeterministicSwitchSequence), so an A/B of two sessions
// never diverges because of scheduler noise.
//
// Policy: the governor projects the next frame's cost per tier as an EWMA
// (α=1/4) of that tier's observed frame times, seeded from the device
// model's latency anchors while a tier is still unobserved. Resident in
// float, it switches to fixed the moment the float projection exceeds the
// frame budget. Resident in fixed, it never trusts the stale float history:
// it schedules single-frame float probes (cadence tierProbeGap0, doubling
// to tierProbeGapMax on failure), and only a probe that beats the low
// watermark switches the stream back — the probe's cost then replaces the
// float EWMA outright, since the history it would blend with predates the
// downswitch.
type tierGovernor struct {
	budget time.Duration
	low    time.Duration
	// ewma[TierFloat], ewma[TierFixed]: observed per-tier frame cost;
	// 0 means unobserved (fall back to seed).
	ewma [2]time.Duration
	seed [2]time.Duration

	resident  Tier // TierFloat or TierFixed
	frame     int  // frames issued by next
	probeAt   int  // first frame eligible for the next float probe
	probeGap  int  // current probe cadence (backoff state)
	probeGap0 int  // cadence reset value (tierProbeGap0; tests shrink it)
	probeOut  bool // a probe frame is in flight, not yet observed
}

// newTierGovernor seeds the policy from the device model's priors: the
// stream starts in whichever tier the seeds say fits the budget, preferring
// float (the reference tier) when both do.
func newTierGovernor(budget, seedFloat, seedFixed time.Duration) *tierGovernor {
	g := &tierGovernor{
		budget:    budget,
		low:       time.Duration(float64(budget) * tierLowWatermark),
		seed:      [2]time.Duration{TierFloat: seedFloat, TierFixed: seedFixed},
		probeGap:  tierProbeGap0,
		probeGap0: tierProbeGap0,
	}
	if seedFloat > budget {
		g.resident = TierFixed
		g.probeAt = g.probeGap
	}
	return g
}

// proj is the governor's cost projection for one tier: the EWMA when the
// tier has been observed, the device-model seed before that.
func (g *tierGovernor) proj(t Tier) time.Duration {
	if g.ewma[t] != 0 {
		return g.ewma[t]
	}
	return g.seed[t]
}

// next issues the tier for the frame about to be ingested, and whether that
// frame is a float probe. Exactly one call per frame, in playout order.
func (g *tierGovernor) next() (t Tier, probe bool) {
	g.frame++
	if g.resident == TierFixed && !g.probeOut && g.frame >= g.probeAt {
		g.probeOut = true
		return TierFloat, true
	}
	return g.resident, false
}

// cancel unwinds a next call whose frame failed before completing (decode
// error): the frame produced no observation, so a probe issued for it is
// re-armed rather than left dangling.
func (g *tierGovernor) cancel(probe bool) {
	if probe {
		g.probeOut = false
	}
}

// observe feeds back the measured cost of a completed frame and returns
// whether the resident tier switched. Observations arrive in playout order;
// under Pipeline they lag the corresponding next call by one frame, which
// delays — but cannot reorder — the decisions.
func (g *tierGovernor) observe(t Tier, probe bool, cost time.Duration) (switched bool) {
	if probe {
		// The probe is the first fresh float datum since the downswitch:
		// it replaces the stale EWMA instead of blending into it.
		g.probeOut = false
		g.ewma[TierFloat] = cost
		if cost <= g.low {
			g.resident = TierFloat
			g.probeGap = g.probeGap0
			return true
		}
		g.probeGap *= 2
		if g.probeGap > tierProbeGapMax {
			g.probeGap = tierProbeGapMax
		}
		g.probeAt = g.frame + g.probeGap
		return false
	}
	if g.ewma[t] == 0 {
		g.ewma[t] = cost
	} else {
		g.ewma[t] = (3*g.ewma[t] + cost) / 4
	}
	if g.resident == TierFloat && g.proj(TierFloat) > g.budget {
		g.resident = TierFixed
		g.probeGap = g.probeGap0
		g.probeAt = g.frame + g.probeGap
		return true
	}
	return false
}
