// Package cluster turns N nerved origins into one horizontally scaled
// origin: every node serves the full HTTP surface, but each (rate, chunk)
// segment — and each chunk's codes payload — has exactly one owner,
// chosen by rendezvous (highest-random-weight) hashing over the live
// membership. A node that receives a request for a key it does not own
// fetches the payload from the owner over the fault-tolerant client path
// (retry/backoff, singleflight-collapsed, LRU-cached); if the owner is
// dead it marks it so, the key rehashes onto the survivors, and the node
// serves the payload from its own local origin — every node carries the
// procedural source, so capacity degrades instead of availability.
//
// Rendezvous hashing is used instead of a token ring because it needs no
// token state to agree on: every node computes owner(key) = argmax
// hash(node, key) over the members it believes are alive, and when a node
// dies only that node's keys move (minimal disruption), each landing on
// its second-highest scorer. Nodes discover deaths independently through
// failed peer fetches, so their membership views converge without any
// coordination channel.
package cluster

import (
	"hash/fnv"
	"sync"
	"time"
)

// DefaultDeadCooldown is how long a node stays suspected dead after a
// failed peer fetch before it is retried. Long enough that a dying node
// is not hammered, short enough that a restarted node rejoins quickly.
const DefaultDeadCooldown = 5 * time.Second

// Ring is the consistent-hash membership view of one node. Safe for
// concurrent use.
type Ring struct {
	mu       sync.RWMutex
	nodes    []string
	dead     map[string]time.Time // node → suspicion expiry
	cooldown time.Duration
	now      func() time.Time
}

// NewRing builds a ring over the given member base URLs. cooldown <= 0
// means DefaultDeadCooldown.
func NewRing(cooldown time.Duration, nodes ...string) *Ring {
	if cooldown <= 0 {
		cooldown = DefaultDeadCooldown
	}
	ns := make([]string, len(nodes))
	copy(ns, nodes)
	return &Ring{
		nodes:    ns,
		dead:     make(map[string]time.Time),
		cooldown: cooldown,
		now:      time.Now,
	}
}

// Owner returns the live member with the highest rendezvous score for
// key. When every member is suspected dead the full membership is used —
// the caller will fail its peer fetch and fall back locally anyway.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	best, bestScore := "", uint64(0)
	alive := 0
	for _, n := range r.nodes {
		if r.suspectedLocked(n) {
			continue
		}
		alive++
		if s := rendezvousScore(n, key); best == "" || s > bestScore {
			best, bestScore = n, s
		}
	}
	if alive == 0 {
		for _, n := range r.nodes {
			if s := rendezvousScore(n, key); best == "" || s > bestScore {
				best, bestScore = n, s
			}
		}
	}
	return best
}

// MarkDead suspects a member for the cooldown period (peer fetch failed
// through the whole retry policy). It reports whether this call newly
// killed the node — the rehash moment, counted once per death.
func (r *Ring) MarkDead(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	wasLive := !r.suspectedLocked(node)
	r.dead[node] = r.now().Add(r.cooldown)
	return wasLive
}

// MarkAlive clears a member's suspicion (a fetch from it succeeded).
func (r *Ring) MarkAlive(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.dead, node)
}

// Alive reports whether a member is currently believed live.
func (r *Ring) Alive(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.suspectedLocked(node)
}

// Live returns the members currently believed live, in membership order.
func (r *Ring) Live() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, n := range r.nodes {
		if !r.suspectedLocked(n) {
			out = append(out, n)
		}
	}
	return out
}

func (r *Ring) suspectedLocked(node string) bool {
	exp, ok := r.dead[node]
	return ok && r.now().Before(exp)
}

// rendezvousScore is the HRW weight of (node, key): FNV-1a over the pair
// (separator so ("ab","c") and ("a","bc") differ) pushed through a
// splitmix64 finalizer. The finalizer matters: raw FNV applied to inputs
// that share a long common suffix keeps the relative ordering of two
// nodes' scores nearly constant across keys, which skews ownership so
// badly that one node of three can own nothing. The avalanche step makes
// the per-key orderings independent.
func rendezvousScore(node, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(node))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
