package core

import "fmt"

// Tier names the client's kernel tier. There is one: every client runs
// the byte path, and every frame reports TierFixed.
//
// Deprecated: Tier, TierFixed, TierFloat, TierAuto, ClientConfig.Tier and
// FrameResult.Tier remain only because perfbench reads them; ROADMAP.md
// item 1 deletes them.
type Tier int

const (
	// TierFixed is the byte path and the zero value of ClientConfig.Tier.
	//
	// Deprecated: see Tier.
	TierFixed Tier = iota
	// TierFloat names the deleted float tier; NewClient rejects it.
	//
	// Deprecated: see Tier.
	TierFloat
)

// TierAuto is TierFixed.
//
// Deprecated: see Tier.
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
