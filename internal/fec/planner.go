package fec

import (
	"fmt"
	"sort"
)

// Planner is the offline lookup table from §4: for each anticipated network
// loss rate it stores the FEC redundancy level that maximised QoE in
// offline trials. At run time the client predicts the next chunk's loss
// rate and indexes the table.
type Planner struct {
	losses []float64 // ascending
	best   []float64 // redundancy chosen for each loss rate
}

// BuildPlanner evaluates every (lossRate, redundancy) pair with eval (which
// returns the achieved QoE) and records, per loss rate, the redundancy with
// the highest QoE. lossRates need not be sorted; redundancies must be
// non-empty.
func BuildPlanner(lossRates, redundancies []float64, eval func(loss, redundancy float64) float64) (*Planner, error) {
	if len(lossRates) == 0 || len(redundancies) == 0 {
		return nil, fmt.Errorf("fec: planner needs loss rates and redundancies")
	}
	type entry struct{ loss, best float64 }
	entries := make([]entry, 0, len(lossRates))
	for _, l := range lossRates {
		bestRed := redundancies[0]
		bestQoE := eval(l, redundancies[0])
		for _, r := range redundancies[1:] {
			if q := eval(l, r); q > bestQoE {
				bestQoE, bestRed = q, r
			}
		}
		entries = append(entries, entry{l, bestRed})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].loss < entries[j].loss })
	p := &Planner{}
	for _, e := range entries {
		p.losses = append(p.losses, e.loss)
		p.best = append(p.best, e.best)
	}
	return p, nil
}

// NewPlannerFromTable builds a planner directly from a loss→redundancy
// table (used to ship calibrated defaults). Entries are sorted by loss.
func NewPlannerFromTable(table map[float64]float64) *Planner {
	p := &Planner{}
	losses := make([]float64, 0, len(table))
	for l := range table {
		losses = append(losses, l)
	}
	sort.Float64s(losses)
	for _, l := range losses {
		p.losses = append(p.losses, l)
		p.best = append(p.best, table[l])
	}
	return p
}

// Redundancy returns the planned redundancy for a predicted loss rate,
// linearly interpolating between table entries and clamping at the ends.
func (p *Planner) Redundancy(predictedLoss float64) float64 {
	if len(p.losses) == 0 {
		return 0
	}
	if predictedLoss <= p.losses[0] {
		return p.best[0]
	}
	n := len(p.losses)
	if predictedLoss >= p.losses[n-1] {
		return p.best[n-1]
	}
	i := sort.SearchFloat64s(p.losses, predictedLoss)
	// p.losses[i-1] < predictedLoss <= p.losses[i]
	l0, l1 := p.losses[i-1], p.losses[i]
	f := (predictedLoss - l0) / (l1 - l0)
	return p.best[i-1] + f*(p.best[i]-p.best[i-1])
}

// DefaultPlanner returns the calibrated default table: redundancy ≈ 5× the
// loss rate (the paper's Fig. 1/2 finding that FEC must be about five times
// the packet loss rate to recover frames), capped at 60%.
func DefaultPlanner() *Planner {
	table := map[float64]float64{}
	for _, l := range []float64{0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12} {
		r := 5 * l
		if r > 0.6 {
			r = 0.6
		}
		table[l] = r
	}
	return NewPlannerFromTable(table)
}
