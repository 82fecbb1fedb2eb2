package fec

import (
	"errors"
	"fmt"
)

// ReedSolomon is a systematic erasure code over GF(2⁸): k data shards plus
// m parity shards, any k of which reconstruct the data. This is the RS code
// the paper cites for burst-error recovery in streaming systems.
type ReedSolomon struct {
	k, m int
	// parity holds the m×k encoding rows (the non-identity part of the
	// systematic generator matrix).
	parity [][]byte
}

// NewReedSolomon builds a code with k data and m parity shards.
// k+m must be ≤ 255.
func NewReedSolomon(k, m int) (*ReedSolomon, error) {
	if k <= 0 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("fec: invalid RS parameters k=%d m=%d", k, m)
	}
	// Build a systematic generator from a (k+m)×k Vandermonde matrix:
	// rows_i = [α_i⁰ … α_iᵏ⁻¹]. Multiplying by the inverse of the top k×k
	// block makes the top block the identity; the bottom m rows become
	// the parity rows.
	vand := make([][]byte, k+m)
	for i := range vand {
		vand[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			vand[i][j] = gfPow(gfExp[i], j)
		}
	}
	top := make([][]byte, k)
	for i := range top {
		top[i] = make([]byte, k)
		copy(top[i], vand[i])
	}
	if !matInvert(top) {
		return nil, errors.New("fec: Vandermonde top block singular")
	}
	parity := make([][]byte, m)
	for r := 0; r < m; r++ {
		parity[r] = make([]byte, k)
		for c := 0; c < k; c++ {
			var acc byte
			for t := 0; t < k; t++ {
				acc ^= gfMul(vand[k+r][t], top[t][c])
			}
			parity[r][c] = acc
		}
	}
	return &ReedSolomon{k: k, m: m, parity: parity}, nil
}

// Encode appends m parity shards to the k data shards. All data shards must
// share one length. The returned slice has length k+m; the first k entries
// alias the input data shards.
func (rs *ReedSolomon) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != rs.k {
		return nil, fmt.Errorf("fec: Encode got %d shards, want %d", len(data), rs.k)
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return nil, fmt.Errorf("fec: shard %d length %d != %d", i, len(d), size)
		}
	}
	out := make([][]byte, rs.k+rs.m)
	copy(out, data)
	for r := 0; r < rs.m; r++ {
		p := make([]byte, size)
		for c := 0; c < rs.k; c++ {
			mulSliceAdd(p, data[c], rs.parity[r][c])
		}
		out[rs.k+r] = p
	}
	return out, nil
}

// Reconstruct fills in missing data shards (nil entries) of a k+m shard set
// in place. It needs at least k present shards; otherwise it returns an
// error and leaves shards untouched. Parity shards are not regenerated.
func (rs *ReedSolomon) Reconstruct(shards [][]byte) error {
	if len(shards) != rs.k+rs.m {
		return fmt.Errorf("fec: Reconstruct got %d shards, want %d", len(shards), rs.k+rs.m)
	}
	present := 0
	size := -1
	for _, s := range shards {
		if s != nil {
			present++
			if size < 0 {
				size = len(s)
			} else if len(s) != size {
				return errors.New("fec: inconsistent shard sizes")
			}
		}
	}
	missingData := 0
	for i := 0; i < rs.k; i++ {
		if shards[i] == nil {
			missingData++
		}
	}
	if missingData == 0 {
		return nil
	}
	if present < rs.k {
		return fmt.Errorf("fec: only %d of %d shards present", present, rs.k)
	}

	// Select k present shards and build the corresponding decode matrix
	// rows (identity rows for data shards, parity rows for parity shards).
	rows := make([][]byte, 0, rs.k)
	sel := make([][]byte, 0, rs.k)
	for i := 0; i < rs.k+rs.m && len(rows) < rs.k; i++ {
		if shards[i] == nil {
			continue
		}
		row := make([]byte, rs.k)
		if i < rs.k {
			row[i] = 1
		} else {
			copy(row, rs.parity[i-rs.k])
		}
		rows = append(rows, row)
		sel = append(sel, shards[i])
	}
	if !matInvert(rows) {
		return errors.New("fec: decode matrix singular")
	}
	// rows is now the inverse: data[c] = Σ_r rows[c][r] · sel[r].
	for c := 0; c < rs.k; c++ {
		if shards[c] != nil {
			continue
		}
		rec := make([]byte, size)
		for r := 0; r < rs.k; r++ {
			mulSliceAdd(rec, sel[r], rows[c][r])
		}
		shards[c] = rec
	}
	return nil
}
