// Package netem is a virtual-time network emulator: an event loop driven by
// a simulated clock, plus a trace-driven link model with serialisation
// delay, a drop-tail queue, propagation delay and a Gilbert–Elliott
// (bursty) loss process. The transport package builds QUIC-like connections
// on top of it; nothing in the package touches the wall clock.
package netem

import (
	"container/heap"
	"math"
	"math/rand"

	"nerve/internal/trace"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-break so equal-time events run FIFO
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Clock is a discrete-event simulation clock. The zero value is ready to
// use and starts at time 0.
type Clock struct {
	now float64
	pq  eventHeap
	seq uint64
}

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Schedule runs fn after delay seconds of simulated time. Negative delays
// run "now".
func (c *Clock) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	c.seq++
	heap.Push(&c.pq, &event{at: c.now + delay, seq: c.seq, fn: fn})
}

// Step runs the next pending event, returning false when none remain.
func (c *Clock) Step() bool {
	if len(c.pq) == 0 {
		return false
	}
	e := heap.Pop(&c.pq).(*event)
	if e.at > c.now {
		c.now = e.at
	}
	e.fn()
	return true
}

// RunUntil processes events until the queue is empty or the next event is
// after deadline; the clock is left at min(deadline, last event time).
func (c *Clock) RunUntil(deadline float64) {
	for len(c.pq) > 0 && c.pq[0].at <= deadline {
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// RunUntilIdle processes every pending event (events may schedule more).
func (c *Clock) RunUntilIdle() {
	for c.Step() {
	}
}

// LossModel decides per-packet drops.
type LossModel interface {
	// Drop reports whether a packet sent at time t is lost, given the
	// target average loss rate at that time.
	Drop(t, targetLoss float64) bool
}

// GilbertElliott is a two-state bursty loss process. In the Bad state
// packets drop with probability BadLoss; the transition probability into
// Bad is derived per packet so the stationary loss matches the target.
type GilbertElliott struct {
	rng *rand.Rand
	// Recover is the per-packet probability of leaving the Bad state.
	Recover float64
	// BadLoss is the drop probability while in the Bad state.
	BadLoss float64
	bad     bool
}

// NewGilbertElliott returns a loss model with the given burstiness
// (Recover=0.3, BadLoss=0.8 are the defaults used by the experiments).
func NewGilbertElliott(seed int64) *GilbertElliott {
	return &GilbertElliott{rng: rand.New(rand.NewSource(seed)), Recover: 0.3, BadLoss: 0.8}
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(_ float64, target float64) bool {
	if target <= 0 {
		return false
	}
	if target >= g.BadLoss {
		target = g.BadLoss * 0.999
	}
	// Stationary Bad probability πB needed: target = πB·BadLoss.
	piB := target / g.BadLoss
	// Entry probability p with exit q: πB = p/(p+q).
	p := g.Recover * piB / (1 - piB)
	if g.bad {
		if g.rng.Float64() < g.Recover {
			g.bad = false
		}
	} else if g.rng.Float64() < p {
		g.bad = true
	}
	if g.bad {
		return g.rng.Float64() < g.BadLoss
	}
	// Small residual random loss in the Good state.
	return g.rng.Float64() < target*0.05
}

// Link is a unidirectional trace-driven link: packets are serialised at the
// trace's current throughput, wait in a bounded drop-tail queue, suffer the
// loss process, and arrive one propagation delay (half the trace RTT)
// later.
type Link struct {
	Clock *Clock
	Trace *trace.Trace
	Loss  LossModel
	// MaxQueueDelay bounds queue waiting time; packets that would wait
	// longer are dropped (bufferbloat guard). Defaults to 2 s when zero.
	MaxQueueDelay float64
	// LossScale multiplies the trace loss rate (0 disables loss when
	// DisableLoss is set).
	LossScale   float64
	DisableLoss bool

	busyUntil float64
	// Counters.
	Sent, Dropped, QueueDropped int
}

// NewLink wires a link to a clock and trace.
func NewLink(c *Clock, tr *trace.Trace, loss LossModel) *Link {
	return &Link{Clock: c, Trace: tr, Loss: loss, MaxQueueDelay: 2, LossScale: 1}
}

// QueueDelay returns the current serialisation backlog: how long a packet
// sent now would wait before its first bit hits the wire.
func (l *Link) QueueDelay() float64 {
	d := l.busyUntil - l.Clock.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Send transmits a packet of size bytes; deliver runs at the arrival time
// unless the packet is dropped (queue overflow or loss), in which case
// deliver is never invoked and Send returns false.
func (l *Link) Send(size int, deliver func()) bool {
	now := l.Clock.Now()
	l.Sent++
	bw := l.Trace.ThroughputAt(now)
	if bw <= 0 {
		bw = 1e3
	}
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	if start-now > l.MaxQueueDelay {
		l.QueueDropped++
		return false
	}
	tx := float64(size*8) / bw
	l.busyUntil = start + tx
	if !l.DisableLoss && l.Loss != nil {
		target := l.Trace.LossAt(now) * l.LossScale
		if l.Loss.Drop(now, target) {
			l.Dropped++
			return false
		}
	}
	prop := l.Trace.RTTAt(now) / 2
	l.Clock.Schedule(l.busyUntil-now+prop, deliver)
	return true
}

// FluidDownload integrates the trace's throughput from start until nbytes
// have been delivered, returning the finish time. It is the analytic
// "fluid" model used by chunk-level ABR simulations (loss-induced
// retransmissions are modelled by inflating nbytes at the caller).
func FluidDownload(tr *trace.Trace, start float64, nbytes int) float64 {
	remaining := float64(nbytes) * 8
	t := start
	const dt = 0.05
	for remaining > 0 {
		bw := tr.ThroughputAt(t)
		if bw <= 0 {
			bw = 1e3
		}
		remaining -= bw * dt
		t += dt
		if t-start > 3600 {
			return math.Inf(1) // stalled beyond any reasonable chunk time
		}
	}
	return t
}
