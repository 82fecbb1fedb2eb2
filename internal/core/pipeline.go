package core

import (
	"time"

	"nerve/internal/par"
	"nerve/internal/telemetry"
)

// Pipeline runs a Client's two-stage frame graph software-pipelined: while
// frame n is still being enhanced (SR head — stage B) on a pool worker, the
// caller's goroutine already ingests frame n+1 (decode/recover — stage A).
// Stage A carries all the temporal state and must stay sequential; stage B
// is a pure function of its input plane, so exactly one B is in flight at a
// time and the overlap changes no pixel: output frames are bit-identical to
// Client.Next for any worker-pool size, including pool size 1, where
// par.Go degrades to inline execution and the schedule collapses to
// exactly Next's.
//
// The price of the overlap is one slot of latency: Push(n) returns frame
// n−1 (nil on the first call), and Flush drains the last frame at end of
// stream. The deadline tracker (telemetry ObserveFrame) sees each slot's
// critical-path time — the time Push actually blocks the caller, ingest(n)
// plus whatever remains of enhance(n−1) at join — because that is what
// bounds the sustainable frame rate. The join does not idle through that
// remainder: every par loop is an open loop, so the joining caller runs
// bands of enhance's loops until the task ends. On two workers the
// critical path is then about ingest plus half of what is left of
// enhance, rather than enhance alone. The other way round holds too: the
// pool goroutine that ran enhance, once it is done, picks up the unclaimed
// bands of the ingest's loops (recovery's flow search, inpaint, per-pixel
// passes).
//
// A Pipeline wraps the Client exclusively: interleaving Push with direct
// Next calls on the same Client is a data race on the temporal state.
type Pipeline struct {
	c *Client

	// Frame in flight: result of the pending stage B, its join handle, and
	// the stage A busy time Flush reports for it.
	pending *FrameResult
	join    func()
	ingest  time.Duration
}

// NewPipeline wraps c in a pipelined scheduler. The client must not be
// driven directly while the pipeline owns it.
func NewPipeline(c *Client) *Pipeline {
	return &Pipeline{c: c}
}

// Client returns the wrapped client (for counters such as ClassCounts).
func (p *Pipeline) Client() *Client { return p.c }

// Push feeds the next playout slot and returns the previous slot's
// completed frame — nil (with nil error) on the very first call. On a
// decode error or a code of the wrong geometry the pipeline state is
// unchanged: the pending frame stays pending and the failed slot consumed
// no temporal state, so the caller may retry or Flush.
func (p *Pipeline) Push(in Input) (*FrameResult, error) {
	start := time.Now()
	res, outTx, err := p.c.stageIngest(in)
	if err != nil {
		return nil, err
	}
	ingest := time.Since(start)
	var done *FrameResult
	if p.pending != nil {
		p.join()
		done = p.pending
		// The deadline tracker sees how long this Push blocked the caller
		// (ingest of the new slot + the tail of the joined enhance).
		telemetry.Default.ObserveFrame(time.Since(start))
	}
	p.pending = res
	p.ingest = ingest
	dst := p.c.displayPlane()
	p.join = par.Go(func() { res.Frame = p.c.stageEnhance(dst, outTx) })
	return done, nil
}

// Flush joins the in-flight enhance stage and returns its completed frame,
// or nil when nothing is pending. Call it after the last Push to drain the
// final frame and free the par table slot its enhance task holds.
func (p *Pipeline) Flush() *FrameResult {
	if p.pending == nil {
		return nil
	}
	start := time.Now()
	p.join()
	done := p.pending
	p.pending = nil
	p.join = nil
	// The drain slot has no new ingest to hide the join behind: its
	// critical path is its own ingest plus the remaining enhance tail.
	telemetry.Default.ObserveFrame(p.ingest + time.Since(start))
	return done
}
