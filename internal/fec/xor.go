package fec

import "fmt"

// XORInterleaved is the lightweight LDPC-style alternative the paper
// mentions: data shards are split into g interleaved groups and each group
// gets one XOR parity shard. It recovers at most one loss per group but
// encodes/decodes with plain XOR.
type XORInterleaved struct {
	k, groups int
}

// NewXORInterleaved builds a code over k data shards with the given number
// of parity groups (1 ≤ groups ≤ k).
func NewXORInterleaved(k, groups int) (*XORInterleaved, error) {
	if k <= 0 || groups <= 0 || groups > k {
		return nil, fmt.Errorf("fec: invalid XOR parameters k=%d groups=%d", k, groups)
	}
	return &XORInterleaved{k: k, groups: groups}, nil
}

// Encode appends one XOR parity shard per group. Shard i belongs to group
// i mod groups.
func (x *XORInterleaved) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != x.k {
		return nil, fmt.Errorf("fec: Encode got %d shards, want %d", len(data), x.k)
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return nil, fmt.Errorf("fec: shard %d length %d != %d", i, len(d), size)
		}
	}
	out := make([][]byte, x.k+x.groups)
	copy(out, data)
	for g := 0; g < x.groups; g++ {
		p := make([]byte, size)
		for i := g; i < x.k; i += x.groups {
			for j := range p {
				p[j] ^= data[i][j]
			}
		}
		out[x.k+g] = p
	}
	return out, nil
}

// Reconstruct repairs missing data shards in place where possible: a group
// with exactly one missing member (data or parity counted together) can be
// repaired. It returns an error if any data shard remains missing.
func (x *XORInterleaved) Reconstruct(shards [][]byte) error {
	if len(shards) != x.k+x.groups {
		return fmt.Errorf("fec: Reconstruct got %d shards, want %d", len(shards), x.k+x.groups)
	}
	size := -1
	for _, s := range shards {
		if s != nil {
			size = len(s)
			break
		}
	}
	if size < 0 {
		return fmt.Errorf("fec: all shards missing")
	}
	unrecovered := 0
	for g := 0; g < x.groups; g++ {
		missing := -1
		nMissing := 0
		if shards[x.k+g] == nil {
			nMissing++
		}
		for i := g; i < x.k; i += x.groups {
			if shards[i] == nil {
				nMissing++
				missing = i
			}
		}
		switch {
		case nMissing == 0:
			continue
		case nMissing == 1 && missing >= 0:
			rec := make([]byte, size)
			copy(rec, shards[x.k+g])
			for i := g; i < x.k; i += x.groups {
				if i == missing {
					continue
				}
				for j := range rec {
					rec[j] ^= shards[i][j]
				}
			}
			shards[missing] = rec
		case nMissing == 1:
			// Only the parity shard is missing; data is intact.
			continue
		default:
			// Count data shards that stay missing.
			for i := g; i < x.k; i += x.groups {
				if shards[i] == nil {
					unrecovered++
				}
			}
		}
	}
	if unrecovered > 0 {
		return fmt.Errorf("fec: %d data shards unrecoverable", unrecovered)
	}
	return nil
}
