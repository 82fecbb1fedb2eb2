package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"nerve/internal/core"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its
// unit, and that the traced run's spans nest.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is not implemented", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				o := opts{seed: 3, seconds: 1, trace: traced, log: io.Discard}
				if traced {
					o.traceOut = filepath.Join(t.TempDir(), "spans.json")
				}
				res, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					checkSpans(t, o.traceOut)
				}
			})
		}
	}
}

// checkSpans checks that children lie within their parents, self times
// are non-negative, and every span carries its root's trace id, one per
// frame or chunk.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	byID := map[int]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	roots := map[string]string{} // root name + trace id → seen
	for i := range spans {
		s := &spans[i]
		if s.EndUs < s.StartUs {
			t.Fatalf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			key := s.Name + "/" + s.Trace
			if roots[key] != "" {
				t.Errorf("two %s root spans share trace id %s", s.Name, s.Trace)
			}
			roots[key] = s.Trace
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			t.Fatalf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartUs < p.StartUs || s.EndUs > p.EndUs {
			t.Errorf("span %d %s [%.1f, %.1f] outside parent %s [%.1f, %.1f]", s.ID, s.Name, s.StartUs, s.EndUs, p.Name, p.StartUs, p.EndUs)
		}
		if s.Trace != p.Trace {
			t.Errorf("span %d %s has trace %s, its parent %s", s.ID, s.Name, s.Trace, p.Trace)
		}
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d %s has self time %.3f µs", spans[i].ID, spans[i].Name, self)
		}
	}
}

// TestPlayRepeatsExactly checks that the frame-class counts, the tier
// sequence and psnr_db of a play-lossy session repeat exactly for one seed.
func TestPlayRepeatsExactly(t *testing.T) {
	p, err := setupPlay(true)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	slots := warmSlots + 60
	a := p.play(5, slots, nil, false)
	if err := p.newClient(); err != nil {
		t.Fatal(err)
	}
	b := p.play(5, slots, nil, false)
	for _, s := range []*session{a, b} {
		if s.chk.failed != 0 {
			t.Fatalf("session failed: %v", s.chk.first)
		}
	}
	if fmt.Sprint(a.classes) != fmt.Sprint(b.classes) || fmt.Sprint(a.tiers) != fmt.Sprint(b.tiers) {
		t.Errorf("classes %v / %v, tiers %v / %v", a.classes, b.classes, a.tiers, b.tiers)
	}
	if a.psnr != b.psnr {
		t.Errorf("psnr_db %v then %v", a.psnr, b.psnr)
	}
	if a.classes[core.ClassSR] == slots {
		t.Error("no slot reached recovery")
	}
}
