package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fixed observations so its snapshot
// is byte-for-byte reproducible (bucket midpoints are pure integer math).
func goldenRegistry() *Registry {
	r := New()
	r.Enable(true)
	r.SetDeadlineFPS(50) // 20 ms budget
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		r.Observe(StageEncode, d)
	}
	r.Observe(StageCode, 150*time.Microsecond)
	r.Observe(StageCode, 250*time.Microsecond)
	r.Observe(StageFlow, 4*time.Millisecond)
	r.Observe(StageWarp, 500*time.Microsecond)
	r.Observe(StageRecovery, 9*time.Millisecond)
	// decode, sr, fec, fetch, abr stay at zero observations: the snapshot
	// must list them anyway, so the schema is stable across runs.
	r.Counter("httpstream_retries").Add(2)
	r.Counter("experiments_run").Add(1)
	for _, d := range []time.Duration{10 * time.Millisecond, 18 * time.Millisecond, 25 * time.Millisecond,
		18 * time.Millisecond, 25 * time.Millisecond} {
		r.ObserveFrame(d) // each 25 ms frame overruns the 20 ms budget
	}
	return r
}

// TestSnapshotGolden pins the exact BENCH_telemetry.json bytes for a fixed
// set of observations. Run with -update to regenerate after an intentional
// schema change (and bump SnapshotSchema when a field changes meaning).
func TestSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestSnapshotGolden -update ./internal/telemetry/` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot differs from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.String(), want)
	}
}

// TestSnapshotShape checks the structural guarantees consumers rely on:
// schema version, all stages present in pipeline order, counters sorted
// into a map, deadline aggregates consistent with the observations.
func TestSnapshotShape(t *testing.T) {
	s := goldenRegistry().Snapshot()
	if s.Schema != SnapshotSchema {
		t.Errorf("Schema = %d, want %d", s.Schema, SnapshotSchema)
	}
	if len(s.Stages) != int(numStages) {
		t.Fatalf("Stages has %d entries, want %d (zero-count stages must appear)", len(s.Stages), numStages)
	}
	for i, st := range s.Stages {
		if st.Stage != Stage(i).String() {
			t.Errorf("Stages[%d] = %q, want %q (pipeline order)", i, st.Stage, Stage(i).String())
		}
	}
	if s.Stages[StageEncode].Count != 3 || s.Stages[StageDecode].Count != 0 {
		t.Errorf("stage counts: encode=%d decode=%d", s.Stages[StageEncode].Count, s.Stages[StageDecode].Count)
	}
	if s.Counters["httpstream_retries"] != 2 || s.Counters["experiments_run"] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
	d := s.Deadline
	if d.TargetFPS != 50 || d.BudgetMs != 20 {
		t.Errorf("deadline target = %v FPS / %v ms", d.TargetFPS, d.BudgetMs)
	}
	if d.Frames != 5 || d.Overruns != 2 {
		t.Errorf("deadline frames=%d overruns=%d, want 5/2", d.Frames, d.Overruns)
	}
	if d.MaxMs < 24 || d.MaxMs > 26 {
		t.Errorf("deadline MaxMs = %v, want ≈25", d.MaxMs)
	}
	if d.OverrunMaxMs < 4.5 || d.OverrunMaxMs > 5.5 {
		t.Errorf("OverrunMaxMs = %v, want ≈5", d.OverrunMaxMs)
	}
}

// TestSnapshotIsValidJSON decodes WriteJSON output generically — the
// BENCH_telemetry.json artefact must parse with any JSON tooling.
func TestSnapshotIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"schema", "stages", "counters", "deadline"} {
		if _, ok := m[key]; !ok {
			t.Errorf("snapshot missing top-level key %q", key)
		}
	}
}
