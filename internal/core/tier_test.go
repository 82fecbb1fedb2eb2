package core

import (
	"testing"

	"nerve/internal/par"
	"nerve/internal/vmath"
)

// sameBytePathFrames runs pipelined clients with tier and with TierFixed
// over the same frames at each pool size: every frame of the first must
// report TierFixed and display bit-identical to the second's.
func sameBytePathFrames(t *testing.T, tier Tier, workers ...int) {
	t.Helper()
	const frames = 14
	sfs := pipelineServerFrames(t, frames)
	cfg := ClientConfig{
		W: tw, H: th, OutW: tw * 2, OutH: th * 2,
		EnableRecovery: true, EnableSR: true,
	}
	for _, n := range workers {
		restore := par.SetWorkers(n)
		cfg.Tier = tier
		got := runPipelined(t, cfg, sfs)
		cfg.Tier = TierFixed
		fixed := runPipelined(t, cfg, sfs)
		restore()
		if len(got) != frames || len(fixed) != frames {
			t.Fatalf("workers=%d: %d %v and %d fixed frames, want %d", n, len(got), tier, len(fixed), frames)
		}
		for i := range got {
			a, f := got[i], fixed[i]
			if a.Tier != TierFixed {
				t.Fatalf("workers=%d: frame %d ran in tier %v, want %v", n, i, a.Tier, TierFixed)
			}
			if a.Index != f.Index || a.Class != f.Class {
				t.Fatalf("workers=%d: frame %d: %v (idx %d, %v) vs fixed (idx %d, %v)",
					n, i, tier, a.Index, a.Class, f.Index, f.Class)
			}
			for j := range a.Frame.Pix {
				if a.Frame.Pix[j] != f.Frame.Pix[j] {
					t.Fatalf("workers=%d: frame %d: pixel %d differs (%v vs %v)",
						n, i, j, a.Frame.Pix[j], f.Frame.Pix[j])
				}
			}
			vmath.Put(a.Frame)
			vmath.Put(f.Frame)
		}
	}
}

// TestZeroTierIsBytePath: a ClientConfig that sets no Tier is the byte
// path — every frame reports TierFixed and displays bit-identical to an
// explicit TierFixed client's.
func TestZeroTierIsBytePath(t *testing.T) {
	var zero ClientConfig
	sameBytePathFrames(t, zero.Tier, 1, 4)
}

// TestTierAutoFrameAccounting: a pipelined TierAuto client is the byte
// path, at every pool size.
func TestTierAutoFrameAccounting(t *testing.T) {
	sameBytePathFrames(t, TierAuto, 1, 2, 4)
}

// TestNewClientRejectsUnknownTier: any Tier but TierFixed, the deleted
// float tier included, is a configuration error, not a silently chosen
// head.
func TestNewClientRejectsUnknownTier(t *testing.T) {
	for _, tier := range []Tier{-1, TierFloat, TierFloat + 1} {
		cli, err := NewClient(ClientConfig{W: tw, H: th, Tier: tier})
		if err == nil || cli != nil {
			t.Fatalf("NewClient(Tier: %v) = (%v, %v), want an error", tier, cli, err)
		}
	}
}
