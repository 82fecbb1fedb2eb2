package faultnet

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile is a named, reusable network shape for load generation: a
// Config template without a seed. The load harness (internal/loadgen,
// cmd/nerveload) draws each simulated client's network from this matrix,
// seeding every client independently so a run is reproducible end to end
// — same run seed, same per-client fault schedules.
//
// The matrix deliberately spans the regimes the NERVE loss story cares
// about: a clean baseline, memoryless loss that exercises retry/backoff,
// a high-latency path that stresses the fetch-latency SLO, and bursty
// loss where whole retry budgets can burn inside one bad window and the
// client must degrade to codes-only recovery.
type Profile struct {
	// Name is the canonical matrix key ("clean", "lossy", "hilat",
	// "bursty").
	Name string
	// Description is a one-line human summary for reports.
	Description string

	cfg Config // seed left zero; filled per client
}

// Config returns the profile's transport configuration with the given
// seed filled in.
func (p Profile) Config(seed int64) Config {
	c := p.cfg
	c.Seed = seed
	return c
}

// The profile matrix. Rates are chosen so that "lossy" exercises the
// retry path without exhausting a 3-attempt budget (~10% of requests
// faulted, degradation vanishingly rare), while "bursty" concentrates
// the same order of faults into windows where 3 attempts in a row fail
// often enough that codes-only degradation actually happens.
var profiles = []Profile{
	{
		Name:        "clean",
		Description: "no injected faults, no added latency",
		cfg:         Config{},
	},
	{
		Name:        "lossy",
		Description: "memoryless loss: 4% resets, 4% 503s, 2% truncations, 2-8 ms latency",
		cfg: Config{
			ResetRate:       0.04,
			ServerErrorRate: 0.04,
			TruncateRate:    0.02,
			Latency:         2 * time.Millisecond,
			LatencyJitter:   6 * time.Millisecond,
		},
	},
	{
		Name:        "hilat",
		Description: "clean but slow: 40-80 ms added per request",
		cfg: Config{
			Latency:       40 * time.Millisecond,
			LatencyJitter: 40 * time.Millisecond,
		},
	},
	{
		Name:        "bursty",
		Description: "8-request bursts every 32 requests with 50% resets and 25% truncations inside the burst, 1-5 ms latency",
		cfg: Config{
			ResetRate:     0.50,
			TruncateRate:  0.25,
			Latency:       time.Millisecond,
			LatencyJitter: 4 * time.Millisecond,
			BurstCycle:    32,
			BurstOn:       8,
		},
	},
}

// Profiles returns the matrix in a stable order.
func Profiles() []Profile {
	return append([]Profile(nil), profiles...)
}

// ProfileNames returns the canonical names in matrix order.
func ProfileNames() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// ProfileByName resolves a profile by canonical name (case-insensitive);
// "high-latency" is accepted as an alias for "hilat".
func ProfileByName(name string) (Profile, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "high-latency" {
		key = "hilat"
	}
	for _, p := range profiles {
		if p.Name == key {
			return p, nil
		}
	}
	known := ProfileNames()
	sort.Strings(known)
	return Profile{}, fmt.Errorf("faultnet: unknown profile %q (have %s)", name, strings.Join(known, ", "))
}

// SeedFor derives a per-client seed from a run seed, splitmix64-style:
// well-spread, stateless, and stable across runs, so client i sees the
// same fault schedule every time the run seed repeats.
func SeedFor(run int64, client int) int64 {
	z := uint64(run) + 0x9e3779b97f4a7c15*uint64(client+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 means "use the default seed" to RetryPolicy; avoid it
	}
	return int64(z)
}
