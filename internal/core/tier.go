package core

import (
	"fmt"

	"nerve/internal/telemetry"
)

// Tier selects the client's kernel tier.
type Tier int

const (
	// TierFloat pins the float32 kernels for every frame — the reference
	// tier and the zero value of ClientConfig.Tier.
	TierFloat Tier = iota
	// TierFixed pins the integer/SWAR kernel tier for every frame.
	TierFixed
)

// TierAuto is the byte path: a TierAuto client is a TierFixed client, and
// its frames report TierFixed.
//
// Deprecated: use TierFixed. TierAuto once named a per-frame float↔fixed
// governor; it remains only as an alias until its last callers move.
const TierAuto = TierFixed

func (t Tier) String() string {
	switch t {
	case TierFloat:
		return "float"
	case TierFixed:
		return "fixed"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Per-session tier accounting (OBSERVABILITY.md): every frame counts once,
// under the tier its client is pinned to.
var (
	cTierFloatFrames = telemetry.NewCounter("tier.float_frames")
	cTierFixedFrames = telemetry.NewCounter("tier.fixed_frames")
)
