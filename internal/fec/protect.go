package fec

import (
	"fmt"
	"math"

	"nerve/internal/telemetry"
)

// Scheme is an erasure code over equal-size shards: k data shards in, k+m
// shards out, any subset with all data (or enough shards to rebuild it)
// reconstructs.
type Scheme interface {
	Encode(data [][]byte) ([][]byte, error)
	Reconstruct(shards [][]byte) error
}

// Kind selects an erasure-code family.
type Kind int

const (
	// KindReedSolomon is the systematic RS code (optimal: any k of k+m).
	KindReedSolomon Kind = iota
	// KindXOR is the interleaved XOR parity code (cheap, weaker).
	KindXOR
)

func (k Kind) String() string {
	if k == KindXOR {
		return "xor"
	}
	return "reed-solomon"
}

// ParityCount returns the number of parity shards for k data shards at the
// given redundancy ratio (parity ≈ redundancy·k, rounded up, ≥1 when
// redundancy > 0). One RS block over GF(256) carries at most 255 shards,
// so the count saturates at 255-k (zero once k itself reaches 255 — use
// InterleavedParityCount for blocks that large).
func ParityCount(k int, redundancy float64) int {
	if redundancy <= 0 {
		return 0
	}
	m := int(math.Ceil(redundancy * float64(k)))
	if m < 1 {
		m = 1
	}
	if k+m > 255 {
		m = 255 - k
		if m < 0 {
			m = 0
		}
	}
	return m
}

// InterleavedParityCount returns the total parity packet count for k data
// packets protected as interleaved RS blocks: streaming FEC splits a block
// larger than GF(256) allows into stripes and protects each independently,
// so parity grows linearly with k instead of saturating at the single-block
// cap. This is the budget the chunk-level simulator uses — a whole chunk
// (hundreds to thousands of packets) is one protected unit.
func InterleavedParityCount(k int, redundancy float64) int {
	if redundancy <= 0 || k <= 0 {
		return 0
	}
	// Stripe so that data+parity fits one RS block per stripe.
	maxData := int(math.Floor(255 / (1 + redundancy)))
	if maxData < 1 {
		maxData = 1
	}
	if k <= maxData {
		return ParityCount(k, redundancy)
	}
	stripes := (k + maxData - 1) / maxData
	base := k / stripes
	rem := k % stripes
	m := 0
	for s := 0; s < stripes; s++ {
		ks := base
		if s < rem {
			ks++
		}
		m += ParityCount(ks, redundancy)
	}
	return m
}

// Protected is an FEC-protected frame: the original packets padded into
// equal shards plus parity shards.
type Protected struct {
	Kind      Kind
	K, M      int
	ShardSize int
	Sizes     []int    // original packet sizes (for unpadding)
	Shards    [][]byte // k data shards followed by m parity shards
}

// TotalBytes is the on-wire size of all shards.
func (p *Protected) TotalBytes() int { return (p.K + p.M) * p.ShardSize }

// Protect wraps a frame's packets with FEC at the given redundancy ratio.
// A zero redundancy yields a pass-through Protected with no parity.
func Protect(packets [][]byte, redundancy float64, kind Kind) (*Protected, error) {
	defer telemetry.Start(telemetry.StageFEC).Stop()
	k := len(packets)
	if k == 0 {
		return nil, fmt.Errorf("fec: no packets to protect")
	}
	size := 0
	sizes := make([]int, k)
	for i, p := range packets {
		sizes[i] = len(p)
		if len(p) > size {
			size = len(p)
		}
	}
	if size == 0 {
		size = 1
	}
	data := make([][]byte, k)
	for i, p := range packets {
		d := make([]byte, size)
		copy(d, p)
		data[i] = d
	}
	m := ParityCount(k, redundancy)
	out := &Protected{Kind: kind, K: k, M: m, ShardSize: size, Sizes: sizes}
	if m == 0 {
		out.Shards = data
		return out, nil
	}
	var scheme Scheme
	var err error
	switch kind {
	case KindXOR:
		groups := m
		if groups > k {
			groups = k
		}
		scheme, err = NewXORInterleaved(k, groups)
		out.M = groups
	default:
		scheme, err = NewReedSolomon(k, m)
	}
	if err != nil {
		return nil, err
	}
	out.Shards, err = scheme.Encode(data)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Recover attempts to reconstruct the original packets given per-shard
// received flags (length K+M). It returns the packets that could be
// recovered (nil entries for unrecoverable packets) and whether the whole
// frame was recovered.
func (p *Protected) Recover(received []bool) ([][]byte, bool) {
	defer telemetry.Start(telemetry.StageFEC).Stop()
	if len(received) != p.K+p.M {
		panic(fmt.Sprintf("fec: received mask %d != %d shards", len(received), p.K+p.M))
	}
	shards := make([][]byte, p.K+p.M)
	for i := range shards {
		if received[i] {
			shards[i] = p.Shards[i]
		}
	}
	if p.M > 0 {
		var scheme Scheme
		var err error
		switch p.Kind {
		case KindXOR:
			scheme, err = NewXORInterleaved(p.K, p.M)
		default:
			scheme, err = NewReedSolomon(p.K, p.M)
		}
		if err == nil {
			_ = scheme.Reconstruct(shards) // best effort; holes stay nil
		}
	}
	packets := make([][]byte, p.K)
	complete := true
	for i := 0; i < p.K; i++ {
		if shards[i] == nil {
			complete = false
			continue
		}
		packets[i] = shards[i][:p.Sizes[i]]
	}
	return packets, complete
}
