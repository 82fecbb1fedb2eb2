package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call at a layer boundary. Spans of one frame or chunk
// share a trace id; Parent is the id of the enclosing span (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	// Tag qualifies the call (frame type, tier, recovery class, ...).
	Tag     string  `json:"tag,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

func (s *span) dur() float64 { return s.EndUs - s.StartUs }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// sp is an open span handle.
type sp struct {
	t  *tracer
	id int
}

// begin opens a span named name in trace traceID under parent (the zero sp
// for a root span).
func (t *tracer) begin(parent sp, traceID, name, tag string) sp {
	if t == nil {
		return sp{}
	}
	now := float64(time.Since(t.origin)) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Trace: traceID, Name: name, Tag: tag, StartUs: now, EndUs: -1})
	return sp{t, id}
}

// end closes the span.
func (s sp) end() {
	if s.t == nil {
		return
	}
	now := float64(time.Since(s.t.origin)) / 1e3
	s.t.mu.Lock()
	s.t.spans[s.id-1].EndUs = now
	s.t.mu.Unlock()
}

// child opens a span under s in s's trace.
func (s sp) child(name, tag string) sp {
	if s.t == nil {
		return sp{}
	}
	s.t.mu.Lock()
	traceID := s.t.spans[s.id-1].Trace
	s.t.mu.Unlock()
	return s.t.begin(s, traceID, name, tag)
}

// timed runs fn inside a child span of parent and returns its wall time.
// The time is measured here whether or not a tracer is attached, so traced
// and untraced runs time the same interval.
func timed(parent sp, name, tag string, fn func()) time.Duration {
	s := parent.child(name, tag)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.end()
	return d
}

// selfTimes returns each span's duration minus the part of it its children
// cover, indexed like spans.
func selfTimes(spans []span) []float64 {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		var iv [][2]float64
		for _, k := range kids[s.ID] {
			iv = append(iv, [2]float64{max(spans[k].StartUs, s.StartUs), min(spans[k].EndUs, s.EndUs)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := 0.0, s.StartUs
		for _, v := range iv {
			lo := max(v[0], hi)
			if v[1] > lo {
				covered += v[1] - lo
				hi = v[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// byName returns the durations (ms) of the spans with the given name and,
// when tag is non-empty, that tag.
func (t *tracer) byName(name, tag string) sample {
	if t == nil {
		return nil
	}
	var out sample
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, s.dur()/1e3)
		}
	}
	return out
}

// report prints per-name call counts, total and self time, and writes
// every span to path as JSON.
func (t *tracer) report(w io.Writer, path string) error {
	self := selfTimes(t.spans)
	type agg struct {
		n           int
		total, self float64
	}
	names := map[string]*agg{}
	for i := range t.spans {
		a := names[t.spans[i].Name]
		if a == nil {
			a = &agg{}
			names[t.spans[i].Name] = a
		}
		a.n++
		a.total += t.spans[i].dur() / 1e3
		a.self += self[i] / 1e3
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcalls\ttotal ms\tself ms\tself ms/call")
	for _, k := range keys {
		a := names[k]
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.3f\n", k, a.n, a.total, a.self, a.self/float64(a.n))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintf(w, "%d spans written to %s\n", len(t.spans), path)
	return nil
}
