package main

import (
	"reflect"
	"sync"
	"testing"

	"nerve/internal/codec"
	"nerve/internal/fec"
)

// servedClip is the clip play-lossy sends: each frame's slices as the
// origin serves them, protected at the planned redundancy exactly as
// session.datagrams protects them.
var servedClip struct {
	once   sync.Once
	frames []*fec.Protected
	err    error
}

func clipProtection(t *testing.T) []*fec.Protected {
	t.Helper()
	servedClip.once.Do(func() {
		p, err := setupPlay(true)
		if err != nil {
			servedClip.err = err
			return
		}
		defer p.close()
		seg, _ := p.pub.get(segmentPath(0, 0))
		recs, err := splitRecords(seg)
		if err != nil {
			servedClip.err = err
			return
		}
		redundancy := p.planner.Redundancy(lossyPacketLoss)
		for _, rec := range recs {
			var ef codec.EncodedFrame
			if err := ef.UnmarshalBinary(rec); err != nil {
				servedClip.err = err
				return
			}
			packets := make([][]byte, len(ef.Slices))
			for j := range ef.Slices {
				packets[j] = ef.Slices[j].Data
			}
			prot, err := fec.Protect(packets, redundancy, fec.KindReedSolomon)
			if err != nil {
				servedClip.err = err
				return
			}
			servedClip.frames = append(servedClip.frames, prot)
		}
	})
	if servedClip.err != nil {
		t.Fatal(servedClip.err)
	}
	if len(servedClip.frames) != clipFrames {
		t.Fatalf("served clip has %d frames, want %d", len(servedClip.frames), clipFrames)
	}
	return servedClip.frames
}

// inputs is everything the generators derive from one seed for a
// play-lossy session of slots slots over the served clip.
type inputs struct {
	lost  []bool
	masks [][]bool // nil for a lost slot
	picks []int
}

// genInputs draws a session's inputs in the order play does: no shard
// draws for a slot whose whole frame is lost.
func genInputs(seed int64, slots int, clip []*fec.Protected) inputs {
	plan := newLossPlan(seed, slots)
	in := inputs{lost: plan.lost, masks: make([][]bool, slots)}
	for s := 0; s < slots; s++ {
		if !plan.lost[s] {
			prot := clip[s%clipFrames]
			in.masks[s] = plan.received(prot.K + prot.M)
		}
	}
	sched := newSchedule(seed, liveViewerRate)
	for i := 0; i < 200; i++ {
		in.picks = append(in.picks, sched.key(i, 17))
	}
	return in
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	clip := clipProtection(t)
	a := genInputs(11, 600, clip)
	b := genInputs(11, 600, clip)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from seed 11 differ")
	}
}

func TestDifferentSeedsGiveDifferentInputs(t *testing.T) {
	clip := clipProtection(t)
	a := genInputs(11, 600, clip)
	b := genInputs(12, 600, clip)
	if reflect.DeepEqual(a.lost, b.lost) {
		t.Error("frame-loss pattern does not depend on the seed")
	}
	if reflect.DeepEqual(a.masks, b.masks) {
		t.Error("packet-loss pattern does not depend on the seed")
	}
	if reflect.DeepEqual(a.picks, b.picks) {
		t.Error("read schedule does not depend on the seed")
	}
}

// TestLossyClassMix holds play-lossy to its stated mix: about a fifth of
// the slots reach recovery, split between whole-frame losses and partial
// frames (losses FEC could not repair). The shards are those of the clip
// the origin serves, and a slot counts as partial when Protected.Recover
// cannot make its frame whole, as in play.
func TestLossyClassMix(t *testing.T) {
	const slots = 3000
	clip := clipProtection(t)
	for seed := int64(1); seed <= 10; seed++ {
		in := genInputs(seed, slots, clip)
		lost, partial := 0, 0
		for s := 0; s < slots; s++ {
			if in.lost[s] {
				lost++
				continue
			}
			if _, whole := clip[s%clipFrames].Recover(in.masks[s]); !whole {
				partial++
			}
		}
		lf, pf := float64(lost)/slots, float64(partial)/slots
		if lf != 1.0/lossyFrameBlock {
			t.Errorf("seed %d: lost share %.3f, want %.3f", seed, lf, 1.0/lossyFrameBlock)
		}
		if pf < 0.03 || pf > 0.10 {
			t.Errorf("seed %d: partial share %.3f outside [0.03, 0.10]", seed, pf)
		}
		if r := lf + pf; r < 0.13 || r > 0.22 {
			t.Errorf("seed %d: recovery share %.3f outside [0.13, 0.22]", seed, r)
		}
		t.Logf("seed %d: lost %.3f, partial %.3f", seed, lf, pf)
	}
}
