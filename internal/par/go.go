package par

import (
	"fmt"
	"sync/atomic"
)

// Go runs fn concurrently when the global worker budget has a free slot and
// returns a join func that blocks until fn has finished. It is the pool's
// task-parallel primitive — used by the frame pipeline (internal/core) to
// overlap whole stages, where For/ForRows overlap loop iterations — and
// draws from the same Workers()-1 budget, so a pipeline stage and the data-
// parallel loops inside it never oversubscribe the machine together.
//
// When the budget is spent (or the pool size is 1), Go degrades exactly like
// a nested For: fn runs inline on the first join() call, preserving the
// sequential schedule and its bit-identical results. join re-raises any
// panic from fn on the joining goroutine, and is idempotent — every call
// after the first returns immediately.
//
// A join that finds its task still running does not just block: until the
// task has finished it runs bands of open loops — the task's own loops,
// which found the budget spent, or any other (help.go) — so the joining
// goroutine works instead of idling. It returns only after fn has.
//
// The task's goroutine, once fn has returned, drains before it finishes:
// it runs the unclaimed bands of every loop open at that moment (loops
// that other goroutines started while it held the budget slot), and only
// then frees the slot and signals the join. It never waits for a loop to
// be published, and a panic in a band it runs is re-raised by that loop's
// owner, not by join.
func Go(fn func()) (join func()) {
	if reserve(1) == 0 {
		done := false
		return func() {
			if done {
				return
			}
			done = true
			fn()
		}
	}
	ch := make(chan any, 1)
	var done atomic.Bool
	activeGo.Add(1)
	go func() {
		defer func() {
			v := recover()
			drain()
			// release before the signalling send, so a returned join()
			// implies the budget slot is free again.
			release(1)
			activeGo.Add(-1)
			finished(&done)
			ch <- v
		}()
		fn()
	}()
	joined := false
	return func() {
		if joined {
			return
		}
		joined = true
		help(&done)
		if v := <-ch; v != nil {
			panic(fmt.Sprintf("par: Go task panicked: %v", v))
		}
	}
}
