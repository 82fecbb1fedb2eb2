package core

import (
	"testing"

	"nerve/internal/par"
	"nerve/internal/vmath"
)

// TestTierAutoFrameAccounting: a pipelined TierAuto client is the byte
// path — every frame reports TierFixed and displays bit-identical to a
// TierFixed client's, at every pool size.
func TestTierAutoFrameAccounting(t *testing.T) {
	const frames = 14
	sfs := pipelineServerFrames(t, frames)
	cfg := func(tier Tier) ClientConfig {
		return ClientConfig{
			W: tw, H: th, OutW: tw * 2, OutH: th * 2,
			EnableRecovery: true, EnableSR: true,
			Tier: tier,
		}
	}
	for _, workers := range []int{1, 2, 4} {
		restore := par.SetWorkers(workers)
		auto := runPipelined(t, cfg(TierAuto), sfs)
		fixed := runPipelined(t, cfg(TierFixed), sfs)
		restore()
		if len(auto) != frames || len(fixed) != frames {
			t.Fatalf("workers=%d: %d auto and %d fixed frames, want %d", workers, len(auto), len(fixed), frames)
		}
		for i := range auto {
			a, f := auto[i], fixed[i]
			if a.Tier != TierFixed {
				t.Fatalf("workers=%d: frame %d ran in tier %v, want %v", workers, i, a.Tier, TierFixed)
			}
			if a.Index != f.Index || a.Class != f.Class {
				t.Fatalf("workers=%d: frame %d: auto (idx %d, %v) vs fixed (idx %d, %v)",
					workers, i, a.Index, a.Class, f.Index, f.Class)
			}
			for j := range a.Frame.Pix {
				if a.Frame.Pix[j] != f.Frame.Pix[j] {
					t.Fatalf("workers=%d: frame %d: pixel %d differs (%v vs %v)",
						workers, i, j, a.Frame.Pix[j], f.Frame.Pix[j])
				}
			}
			vmath.Put(a.Frame)
			vmath.Put(f.Frame)
		}
	}
}

// TestNewClientRejectsUnknownTier: a Tier that is neither TierFloat nor
// TierFixed is a configuration error, not a silently chosen head.
func TestNewClientRejectsUnknownTier(t *testing.T) {
	for _, tier := range []Tier{-1, TierFixed + 1} {
		cli, err := NewClient(ClientConfig{W: tw, H: th, Tier: tier})
		if err == nil || cli != nil {
			t.Fatalf("NewClient(Tier: %v) = (%v, %v), want an error", tier, cli, err)
		}
	}
}
