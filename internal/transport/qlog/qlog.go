// Package qlog is the structured transport event stream of the
// reproduction: a qlog-style taxonomy (in the spirit of the IETF qlog
// schema used by cross-layer QUIC/DASH work) of everything transport.Conn
// observes — datagrams sent/delivered/dropped, reliable retransmissions,
// RTT samples, PTO firings, inflight and send-backlog high-water marks —
// recorded into a bounded ring that in-process consumers (the cross-layer
// ABR aggregator) read through cursors, and optionally serialised as
// deterministic JSON lines.
//
// The full taxonomy — every event type, its fields, units and emission
// point, plus an annotated sample trace — is documented in
// TRANSPORT_EVENTS.md at the repository root.
//
// Design constraints, in order:
//
//   - allocation-conscious: Append never allocates; the ring is sized once
//     and events are plain values. Encoding reuses one scratch buffer.
//   - deterministic: timestamps are the simulation clock's seconds, not
//     wall time, so a fixed seed yields a byte-identical stream
//     (TestQLogStreamDeterministic). Floats are encoded with the shortest
//     round-trip representation.
//   - optional: a Conn without an attached Trace pays nothing.
//
// Serialisation goes through two sinks that can be active at once: a
// direct io.Writer attached with SetSink (what the determinism test and
// nervesim -qlog capture), and the process-wide internal/telemetry JSON
// event sink via Registry.EmitJSON, so transport events interleave with
// the rest of the telemetry event stream when one is attached.
package qlog

import (
	"io"
	"strconv"

	"nerve/internal/telemetry"
)

// EventType enumerates the taxonomy (TRANSPORT_EVENTS.md).
type EventType uint8

// The event types, grouped by emission point.
const (
	// DatagramSent is an unreliable media packet handed to the link.
	DatagramSent EventType = iota
	// DatagramDelivered is an unreliable packet arriving at the receiver.
	DatagramDelivered
	// DatagramDropped is an unreliable packet that never arrived; Trigger
	// distinguishes a wire loss from a local queue overflow.
	DatagramDropped
	// ReliableSent is one wire copy (attempt) of a reliable packet.
	ReliableSent
	// ReliableDelivered is a reliable packet's first successful arrival.
	ReliableDelivered
	// ReliableRetry is a retransmission attempt; Trigger names its cause
	// (a fired PTO or a drained local queue).
	ReliableRetry
	// ReliableAbandoned is a reliable packet given up after MaxAttempts.
	ReliableAbandoned
	// RTTSample is one ACK-clocked round-trip measurement.
	RTTSample
	// PTOFired is a probe timeout expiring on an undelivered packet.
	PTOFired
	// LocalDrop is a reliable attempt rejected by the local queue-overflow
	// guard before reaching the wire.
	LocalDrop
	// InflightHighWater marks a new within-window maximum of bytes in
	// flight.
	InflightHighWater
	// BacklogHighWater marks a new within-window maximum of send-queue
	// backlog.
	BacklogHighWater

	numEventTypes
)

var eventNames = [numEventTypes]string{
	"datagram_sent", "datagram_delivered", "datagram_dropped",
	"reliable_sent", "reliable_delivered", "reliable_retry",
	"reliable_abandoned", "rtt_sample", "pto_fired", "local_drop",
	"inflight_high_water", "backlog_high_water",
}

// String returns the event type's snake-case wire name.
func (t EventType) String() string {
	if t >= numEventTypes {
		return "unknown"
	}
	return eventNames[t]
}

// Trigger qualifies why an event happened, following qlog's trigger
// convention.
type Trigger uint8

// Triggers.
const (
	// TriggerNone marks events that need no qualification.
	TriggerNone Trigger = iota
	// TriggerLoss is a drop by the wire loss process.
	TriggerLoss
	// TriggerQueueFull is a drop by the local queue-overflow guard.
	TriggerQueueFull
	// TriggerPTO marks a retransmission caused by a probe timeout.
	TriggerPTO
	// TriggerQueueDrain marks a retransmission re-attempted as soon as the
	// local queue drained (no PTO wait — the drop was local knowledge).
	TriggerQueueDrain
	// TriggerMaxAttempts marks an abandonment after exhausting retries.
	TriggerMaxAttempts
)

var triggerNames = []string{
	"", "loss", "queue_full", "pto", "queue_drain", "max_attempts",
}

// String returns the trigger's snake-case wire name ("" for TriggerNone).
func (t Trigger) String() string {
	if int(t) >= len(triggerNames) {
		return "unknown"
	}
	return triggerNames[t]
}

// Event is one transport occurrence. The zero value of every field other
// than T and Type means "not applicable" and is omitted from the JSON
// encoding. All times are simulation-clock seconds, all sizes wire bytes
// (payload plus transport header).
type Event struct {
	// T is the emission time in simulation seconds.
	T float64
	// Type is the taxonomy entry.
	Type EventType
	// Trigger qualifies drops, retries and abandonments.
	Trigger Trigger
	// Bytes is the wire size of the packet involved.
	Bytes int
	// Attempt is the 1-based transmission attempt for reliable events.
	Attempt int
	// RTT is the measured round trip in seconds (RTTSample only).
	RTT float64
	// Inflight is the number of wire copies outstanding after the event.
	Inflight int
	// InflightBytes is the outstanding wire bytes after the event.
	InflightBytes int
	// Backlog is the sender's local queue delay in seconds: how long a
	// packet sent now would wait before its first bit hits the wire.
	Backlog float64
}

// cQlogEvents counts every event appended to any Trace; the per-type
// breakdown lives on the Trace itself (Counts).
var cQlogEvents = telemetry.NewCounter("qlog.events")

// Trace is a bounded ring of events. Appending past the capacity
// overwrites the oldest events; readers that fall behind observe the gap
// through Cursor.Skipped rather than blocking the producer. The zero
// value is not ready; use New.
//
// A Trace is intentionally unsynchronised: the transport runs on the
// single-goroutine netem event loop, and each simulated session owns its
// own Trace. Do not share one Trace across goroutines.
type Trace struct {
	ring    []Event
	mask    uint64
	total   uint64
	counts  [numEventTypes]uint64
	sink    io.Writer
	reg     *telemetry.Registry
	scratch []byte
}

// New returns a Trace retaining the last capacity events (rounded up to a
// power of two, minimum 64). Events mirror to the telemetry registry's
// JSON event sink (telemetry.Default) when one is attached.
func New(capacity int) *Trace {
	c := 64
	for c < capacity {
		c <<= 1
	}
	return &Trace{
		ring: make([]Event, c),
		mask: uint64(c - 1),
		reg:  telemetry.Default,
	}
}

// SetSink streams every subsequent event to w as one JSON line each, in
// addition to the ring. A nil w detaches the sink. The encoding is
// deterministic: identical event sequences yield identical bytes.
func (t *Trace) SetSink(w io.Writer) { t.sink = w }

// SetRegistry redirects the telemetry mirror (default telemetry.Default);
// nil disables mirroring.
func (t *Trace) SetRegistry(r *telemetry.Registry) { t.reg = r }

// Append records ev. It never allocates after the encoder scratch buffer
// has warmed up, and encodes JSON only when a sink can observe it.
func (t *Trace) Append(ev Event) {
	t.ring[t.total&t.mask] = ev
	t.total++
	t.counts[ev.Type]++
	cQlogEvents.Add(1)
	mirror := t.reg != nil && t.reg.EventSinkActive()
	if t.sink == nil && !mirror {
		return
	}
	t.scratch = appendEventJSON(t.scratch[:0], &ev)
	if t.sink != nil {
		// A sink that fails must never fail the transport it observes.
		_, _ = t.sink.Write(t.scratch)
	}
	if mirror {
		t.reg.EmitJSON(t.scratch)
	}
}

// Total returns the number of events ever appended.
func (t *Trace) Total() uint64 { return t.total }

// Cap returns the ring capacity.
func (t *Trace) Cap() int { return len(t.ring) }

// Count returns how many events of the given type were appended.
func (t *Trace) Count(typ EventType) uint64 {
	if typ >= numEventTypes {
		return 0
	}
	return t.counts[typ]
}

// Cursor is one reader's position in a Trace. Independent cursors read
// independently; a cursor that falls more than the ring capacity behind
// skips ahead to the oldest retained event, accumulating Skipped.
type Cursor struct {
	t *Trace
	// next is the sequence number of the next event to read.
	next uint64
	// Skipped counts events overwritten before this cursor read them.
	Skipped uint64
}

// NewCursor returns a cursor positioned after the newest event (it reads
// only events appended from now on).
func (t *Trace) NewCursor() Cursor { return Cursor{t: t, next: t.total} }

// NewCursorAtOldest returns a cursor positioned at the oldest retained
// event.
func (t *Trace) NewCursorAtOldest() Cursor {
	c := Cursor{t: t}
	if t.total > uint64(len(t.ring)) {
		c.next = t.total - uint64(len(t.ring))
	}
	return c
}

// Next copies the next unread event into ev, returning false when the
// cursor has caught up with the producer.
func (c *Cursor) Next(ev *Event) bool {
	t := c.t
	if c.next >= t.total {
		return false
	}
	if oldest := t.total - uint64(len(t.ring)); t.total > uint64(len(t.ring)) && c.next < oldest {
		c.Skipped += oldest - c.next
		c.next = oldest
	}
	*ev = t.ring[c.next&t.mask]
	c.next++
	return true
}

// appendEventJSON encodes ev as one JSON object plus trailing newline.
// Hand-rolled so the hot path allocates nothing and the byte stream is a
// pure function of the event sequence.
func appendEventJSON(b []byte, ev *Event) []byte {
	b = append(b, `{"t":`...)
	b = appendFloat(b, ev.T)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, '"')
	if ev.Trigger != TriggerNone {
		b = append(b, `,"trigger":"`...)
		b = append(b, ev.Trigger.String()...)
		b = append(b, '"')
	}
	if ev.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, int64(ev.Bytes), 10)
	}
	if ev.Attempt != 0 {
		b = append(b, `,"attempt":`...)
		b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	}
	if ev.RTT != 0 {
		b = append(b, `,"rtt":`...)
		b = appendFloat(b, ev.RTT)
	}
	if ev.Inflight != 0 {
		b = append(b, `,"inflight":`...)
		b = strconv.AppendInt(b, int64(ev.Inflight), 10)
	}
	if ev.InflightBytes != 0 {
		b = append(b, `,"inflight_bytes":`...)
		b = strconv.AppendInt(b, int64(ev.InflightBytes), 10)
	}
	if ev.Backlog != 0 {
		b = append(b, `,"backlog":`...)
		b = appendFloat(b, ev.Backlog)
	}
	b = append(b, '}', '\n')
	return b
}

// appendFloat writes the shortest representation that round-trips — the
// same contract encoding/json uses, so values compare equal across runs.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
