package main

import (
	"math/rand"
	"time"

	"nerve/internal/netem"
	"nerve/internal/video"
)

// Every input a workload feeds the system is a pure function of --seed:
// the content, the loss pattern of play-lossy, and origin-live's read
// schedule. The program under test receives only the generated inputs.

// content is the source video every workload plays or publishes: a fixed
// test clip (GamePlay, the category with the most objects and the fastest
// motion), so run-to-run differences come from the system, not the scene.
func content() *video.Generator {
	return video.NewGenerator(video.Categories()[3], 1)
}

// play-lossy's channel: one whole frame in every lossyFrameBlock slots
// misses its slot, at a seeded position within the block, and the slices
// of the rest cross a bursty datagram channel under FEC sized by the
// planner for the channel's packet loss rate.
const (
	lossyFrameBlock = 10
	lossyPacketLoss = 0.05
)

// lossPlan is play-lossy's channel for one session.
type lossPlan struct {
	// lost marks the slots whose frame misses its slot entirely.
	lost []bool
	ge   *netem.GilbertElliott
}

func newLossPlan(seed int64, slots int) *lossPlan {
	rng := rand.New(rand.NewSource(seed))
	lost := make([]bool, slots)
	for b := 0; b < slots; b += lossyFrameBlock {
		if i := b + rng.Intn(lossyFrameBlock); i < slots {
			lost[i] = true
		}
	}
	return &lossPlan{lost: lost, ge: netem.NewGilbertElliott(seed ^ 0x6c6f7373)}
}

// received draws which of a protected frame's shards arrive. Calls must
// follow slot order: the channel has memory (bursts).
func (p *lossPlan) received(shards int) []bool {
	got := make([]bool, shards)
	for i := range got {
		got[i] = !p.ge.Drop(0, lossyPacketLoss)
	}
	return got
}

// repairable reports whether a Reed-Solomon block with k data shards can
// rebuild every data shard from the received mask (any k of k+m).
func repairable(got []bool, k int) bool {
	n := 0
	for _, g := range got {
		if g {
			n++
		}
	}
	return n >= k
}

// schedule is origin-live's read schedule at rate requests per second:
// request i is due i/rate seconds after the viewer starts and asks for the
// published key picked by pick[i mod len(pick)] (a uniform draw mapped onto
// the keys published by then).
type schedule struct {
	period time.Duration
	pick   []float64
}

func newSchedule(seed int64, rate int) schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x76696577))
	s := schedule{period: time.Second / time.Duration(rate), pick: make([]float64, 4096)}
	for i := range s.pick {
		s.pick[i] = rng.Float64()
	}
	return s
}

// key maps draw i onto one of n published keys.
func (s schedule) key(i, n int) int {
	k := int(s.pick[i%len(s.pick)] * float64(n))
	if k >= n {
		k = n - 1
	}
	return k
}
