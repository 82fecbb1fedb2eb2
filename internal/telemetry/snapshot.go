package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// SnapshotSchema is the schema version stamped into every snapshot; bump
// it when a field changes meaning so downstream analysis can dispatch.
// v2: added the pipeline block; for pipelined clients the deadline block
// now measures per-frame critical-path time, not summed stage time.
// v3: added the tier.* counters (tier.float_frames, tier.fixed_frames,
// tier.switches, tier.probes) — per-frame kernel-tier accounting from the
// adaptive tier governor; sessions pinned to one tier count every frame
// under that tier with zero switches and probes.
// v4: removed the pipeline block; pipelined clients still record each
// slot's critical-path time in the deadline block.
// v5: removed the tier.switches and tier.probes counters with the tier
// governor; every client is pinned to one tier and counts each frame
// under it in tier.float_frames or tier.fixed_frames.
const SnapshotSchema = 5

// StageStats is one stage's aggregate in a Snapshot. All times are
// milliseconds of wall clock.
type StageStats struct {
	Stage   string  `json:"stage"`
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// DeadlineStats is the frame-deadline tracker's aggregate in a Snapshot.
type DeadlineStats struct {
	// TargetFPS and BudgetMs describe the deadline: BudgetMs = 1000/FPS.
	TargetFPS float64 `json:"target_fps"`
	BudgetMs  float64 `json:"budget_ms"`
	// Frames is how many frames were observed; Overruns how many of them
	// exceeded the budget.
	Frames   int64 `json:"frames"`
	Overruns int64 `json:"overruns"`
	// P50Ms/P95Ms/P99Ms/MaxMs describe the per-frame time distribution.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// OverrunP95Ms and OverrunMaxMs describe how far past the budget the
	// overrunning frames went.
	OverrunP95Ms float64 `json:"overrun_p95_ms"`
	OverrunMaxMs float64 `json:"overrun_max_ms"`
}

// Snapshot is a point-in-time serialisation of a Registry — the schema of
// BENCH_telemetry.json and of the /debug/telemetry endpoint. Stages are
// listed in pipeline order, including stages with zero observations, so
// the schema is stable across runs; counters appear only once registered.
type Snapshot struct {
	Schema   int              `json:"schema"`
	Stages   []StageStats     `json:"stages"`
	Counters map[string]int64 `json:"counters"`
	Deadline DeadlineStats    `json:"deadline"`
}

// ms converts a duration to float64 milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Snapshot captures the registry's current aggregates. It is safe to call
// concurrently with recording; the result is a consistent-enough view for
// reporting (each histogram is read atomically per bucket, not frozen).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Schema:   SnapshotSchema,
		Counters: map[string]int64{},
	}
	for i := Stage(0); i < numStages; i++ {
		h := &r.stages[i]
		s.Stages = append(s.Stages, StageStats{
			Stage:   i.String(),
			Count:   h.Count(),
			TotalMs: ms(h.Sum()),
			P50Ms:   ms(h.Quantile(0.50)),
			P95Ms:   ms(h.Quantile(0.95)),
			P99Ms:   ms(h.Quantile(0.99)),
			MaxMs:   ms(h.Max()),
		})
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.Counters[name] = r.counters[name].Value()
	}
	r.mu.RUnlock()
	s.Deadline = DeadlineStats{
		TargetFPS:    r.DeadlineFPS(),
		BudgetMs:     ms(r.FrameBudget()),
		Frames:       r.dead.frames.Count(),
		Overruns:     r.dead.overruns.Load(),
		P50Ms:        ms(r.dead.frames.Quantile(0.50)),
		P95Ms:        ms(r.dead.frames.Quantile(0.95)),
		P99Ms:        ms(r.dead.frames.Quantile(0.99)),
		MaxMs:        ms(r.dead.frames.Max()),
		OverrunP95Ms: ms(r.dead.over.Quantile(0.95)),
		OverrunMaxMs: ms(r.dead.over.Max()),
	}
	return s
}

// WriteJSON writes the registry's snapshot to w as indented JSON — the
// exact content of a BENCH_telemetry.json file.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
