// Package telemetry is the observability layer of the reproduction: it
// answers "where does the frame time go?" for a system whose whole point
// is fitting recovery and enhancement inside a per-frame deadline (§7:
// <33 ms at 30 FPS).
//
// The package provides four instruments, all safe for concurrent use and
// all free of per-record allocations:
//
//   - stage timers: monotonic wall-clock timers around every pipeline
//     stage (encode, decode, code extraction, flow, warp, SR, recovery,
//     FEC, fetch, ABR), recorded into sharded log-linear histograms that
//     report p50/p95/p99/max;
//   - counters: named monotonic event counts (retries, degraded chunks,
//     cache activity) registered once and bumped with one atomic add;
//   - a frame-deadline tracker: per-frame wall time measured against the
//     budget of a configurable FPS target, counting overruns and keeping
//     the overrun-size distribution;
//   - a structured event sink: optional JSON-lines output of discrete
//     occurrences (a retry, a degradation, a deadline overrun) for
//     post-run analysis.
//
// Everything hangs off a Registry. The process-wide Default registry is
// what the instrumented packages (codec, sr, recovery, httpstream, abr,
// core, sim, experiments) record into; it starts disabled, so the
// instrumentation costs one atomic load per call site until something —
// nervebench -telemetry, nerved -debug-addr, or a test — turns it on.
// Snapshot serialises the registry's state to the BENCH_telemetry.json
// schema documented in OBSERVABILITY.md; internal/telemetry/teldebug
// serves the same snapshot (plus expvar and pprof) over HTTP.
//
// Timers nest: recovery's span includes the flow and warp spans it runs
// internally, so stage totals are not additive — see OBSERVABILITY.md
// for how to read them.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one instrumented pipeline stage.
type Stage int

// The instrumented stages, in pipeline order. StageCode is the binary
// point code (hint) extraction; StageFetch is a client HTTP fetch
// including retries and backoff waits.
const (
	StageEncode Stage = iota
	StageDecode
	StageCode
	StageFlow
	StageWarp
	StageSR
	StageRecovery
	StageFEC
	StageFetch
	StageABR

	numStages
)

// StageNone attributes an event to no particular stage.
const StageNone Stage = -1

var stageNames = [numStages]string{
	"encode", "decode", "code", "flow", "warp",
	"sr", "recovery", "fec", "fetch", "abr",
}

// String returns the stage's snake-case metric name.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Stages returns every instrumented stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Registry holds one independent set of instruments. The zero value is
// not ready to use; call New (or use Default).
type Registry struct {
	enabled atomic.Bool
	stages  [numStages]Histogram
	dead    deadline
	sink    atomic.Pointer[eventSink]

	mu       sync.RWMutex
	counters map[string]*Counter
}

// Default is the process-wide registry every instrumented package records
// into. It starts disabled.
var Default = New()

// New returns a disabled registry with the deadline targeting 30 FPS.
func New() *Registry {
	r := &Registry{counters: make(map[string]*Counter)}
	r.SetDeadlineFPS(30)
	return r
}

// Enable turns recording on or off. While disabled, timers, counters and
// the event sink are no-ops costing one atomic load each.
func (r *Registry) Enable(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Reset zeroes every histogram, counter and the deadline tracker. It does
// not change the enabled state, the FPS target or the event sink.
func (r *Registry) Reset() {
	for i := range r.stages {
		r.stages[i].reset()
	}
	r.dead.reset()
	r.mu.RLock()
	for _, c := range r.counters {
		c.n.Store(0)
	}
	r.mu.RUnlock()
}

// Timer measures one stage span. The zero Timer (returned while the
// registry is disabled) is inert: Stop on it does nothing.
type Timer struct {
	r     *Registry
	stage Stage
	start time.Time
}

// Start begins timing one span of stage s. The idiomatic call site is
//
//	defer telemetry.Start(telemetry.StageEncode).Stop()
//
// which evaluates Start immediately and records on return.
func (r *Registry) Start(s Stage) Timer {
	if s < 0 || s >= numStages {
		panic(fmt.Sprintf("telemetry: invalid stage %d", int(s)))
	}
	if !r.enabled.Load() {
		return Timer{}
	}
	return Timer{r: r, stage: s, start: time.Now()}
}

// Stop records the span's elapsed wall time (monotonic clock).
func (t Timer) Stop() {
	if t.r == nil {
		return
	}
	t.r.stages[t.stage].Observe(time.Since(t.start))
}

// Observe records one already-measured span of stage s.
func (r *Registry) Observe(s Stage, d time.Duration) {
	if s < 0 || s >= numStages {
		panic(fmt.Sprintf("telemetry: invalid stage %d", int(s)))
	}
	if !r.enabled.Load() {
		return
	}
	r.stages[s].Observe(d)
}

// StageHistogram returns the histogram backing stage s, for direct
// inspection in tests and tools.
func (r *Registry) StageHistogram(s Stage) *Histogram {
	if s < 0 || s >= numStages {
		panic(fmt.Sprintf("telemetry: invalid stage %d", int(s)))
	}
	return &r.stages[s]
}

// Counter is a named monotonic event count. Adds are single atomic
// operations gated on the owning registry's enabled flag.
type Counter struct {
	r *Registry
	n atomic.Int64
}

// Counter returns the counter registered under name, creating it on first
// use. Counters are cheap to look up but call sites should hold the
// returned handle rather than re-resolving the name per event.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{r: r}
	r.counters[name] = c
	return c
}

// Add increments the counter by n while the registry is enabled.
func (c *Counter) Add(n int64) {
	if !c.r.enabled.Load() {
		return
	}
	c.n.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// ---- Package-level helpers on the Default registry ----

// Enable turns the Default registry on or off.
func Enable(on bool) { Default.Enable(on) }

// Enabled reports whether the Default registry is recording.
func Enabled() bool { return Default.Enabled() }

// Start begins timing a span of stage s on the Default registry.
func Start(s Stage) Timer { return Default.Start(s) }

// NewCounter returns the Default registry's counter for name.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// FrameStart begins timing one frame on the Default registry.
func FrameStart() FrameTimer { return Default.FrameStart() }

// SetDeadlineFPS sets the Default registry's frame-rate target.
func SetDeadlineFPS(fps float64) { Default.SetDeadlineFPS(fps) }

// Emit writes an event to the Default registry's sink, if one is set.
func Emit(kind string, stage Stage, detail string, value float64) {
	Default.Emit(kind, stage, detail, value)
}
