// Package par is the shared worker pool behind every per-pixel hot loop in
// the reproduction: macroblock encoding (internal/codec), resampling
// (internal/vmath), flow-guided warping (internal/warp), super-resolution
// (internal/sr) and the experiment harness fan-out (internal/experiments).
//
// Design constraints, in order:
//
//  1. Determinism. Callers must produce bit-identical output for any pool
//     size, including 1. The pool therefore never reorders reductions — it
//     only hands out index ranges; each task writes to a disjoint,
//     caller-owned slot. Task boundaries depend only on the problem size,
//     never on the number of workers.
//  2. Bounded concurrency under nesting. One global budget of
//     Workers()-1 extra workers is shared by every call in the process: an
//     inner parallel loop running on a pool worker finds the budget spent
//     and runs on the calling goroutine instead of oversubscribing the
//     machine.
//     While a Go task is in flight such a loop is also published as an
//     open loop (help.go), and a goroutine blocked in a Go join runs bands
//     of open loops until its task has finished: the joiner would
//     otherwise sit idle, so helping adds no goroutine to the count. A
//     finished task's goroutine does the same before it gives its budget
//     slot back: it runs the unclaimed bands of the loops open at that
//     moment, so a loop that started while the task held the slot does
//     not stay on its owner alone.
//  3. Cheap dispatch. Workers pull indices from an atomic cursor — no
//     channels, no per-task allocations, no persistent goroutines to leak.
//
// The pool size defaults to runtime.GOMAXPROCS(0), may be pinned with the
// NERVE_WORKERS environment variable (read once at process start), and may
// be overridden at runtime with SetWorkers (tests, benchmarks, the
// nervebench -workers flag).
package par

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workerOverride is the configured pool size; 0 means "use GOMAXPROCS".
var workerOverride atomic.Int64

// activeExtra counts extra workers currently running across the whole
// process; it never exceeds Workers()-1 (the caller's goroutine is the
// implicit extra worker of every loop).
var activeExtra atomic.Int64

func init() {
	if s := os.Getenv("NERVE_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			workerOverride.Store(int64(n))
		}
	}
}

// Workers returns the current pool size: the SetWorkers/NERVE_WORKERS
// override when set, otherwise runtime.GOMAXPROCS(0).
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers pins the pool size and returns a func restoring the previous
// setting — intended for tests and benchmarks:
//
//	defer par.SetWorkers(1)()
//
// n <= 0 removes the override (back to GOMAXPROCS).
func SetWorkers(n int) (restore func()) {
	if n < 0 {
		n = 0
	}
	prev := workerOverride.Swap(int64(n))
	return func() { workerOverride.Store(prev) }
}

// reserve claims up to want extra workers from the global budget and
// returns how many were granted (possibly 0).
func reserve(want int) int {
	limit := int64(Workers() - 1)
	for {
		cur := activeExtra.Load()
		free := limit - cur
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if activeExtra.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

func release(n int) { activeExtra.Add(int64(-n)) }

// firstPanic records the first panic observed across the loop's workers so
// it can be re-raised on the caller's goroutine.
type firstPanic struct {
	mu  sync.Mutex
	val any
	set bool
}

func (p *firstPanic) record(v any) {
	p.mu.Lock()
	if !p.set {
		p.val, p.set = v, true
	}
	p.mu.Unlock()
}

// run executes fn(i) for every i in [0, tasks), using the caller's
// goroutine plus however many extra workers the global budget grants.
// Workers pull indices in ascending order from a shared cursor. A loop
// granted no extra worker while a Go task is in flight pulls its indices
// from an open loop instead, which joiners may help (help.go).
func run(tasks int, fn func(i int)) {
	if tasks <= 0 {
		return
	}
	extra := 0
	if tasks > 1 {
		extra = reserve(min(tasks-1, Workers()-1))
	}
	if extra == 0 {
		if tasks > 1 && activeGo.Load() > 0 {
			if l := publish(tasks, fn); l != nil {
				l.own()
				return
			}
		}
		for i := 0; i < tasks; i++ {
			fn(i)
		}
		return
	}
	defer release(extra)

	var cursor atomic.Int64
	var pan firstPanic
	work := func() {
		defer func() {
			if v := recover(); v != nil {
				pan.record(v)
				// Drain the cursor so sibling workers stop promptly.
				cursor.Store(int64(tasks))
			}
		}()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= tasks {
				return
			}
			fn(i)
		}
	}

	var wg sync.WaitGroup
	wg.Add(extra)
	for k := 0; k < extra; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if pan.set {
		panic(fmt.Sprintf("par: worker panicked: %v", pan.val))
	}
}

// For runs fn(i) for every i in [0, n) on the pool. fn must be safe to call
// concurrently and must only write state owned by index i.
func For(n int, fn func(i int)) { run(n, fn) }

// forRowsGrain is the number of rows per task in ForRows. It depends only
// on the constant, never on the worker count, so the band decomposition —
// and therefore the output of any per-band-pure computation — is identical
// for every pool size.
const forRowsGrain = 8

// ForRows splits the row range [0, h) into contiguous bands of up to
// forRowsGrain rows and runs fn(y0, y1) for each band [y0, y1) on the pool.
// Bands are disjoint and cover [0, h) exactly; their boundaries depend only
// on h, so output is pool-size independent for any fn that is a pure
// function of its band.
func ForRows(h int, fn func(y0, y1 int)) { ForSpans(h, forRowsGrain, fn) }

// ForSpans splits the index range [0, n) into contiguous spans of span
// indices (the last may be shorter) and runs fn(i0, i1) for each span
// [i0, i1) on the pool. Like ForRows, the boundaries depend only on n and
// span, never on the worker count; callers pass a positive constant span
// sized so one span is worth a dispatch.
func ForSpans(n, span int, fn func(i0, i1 int)) {
	if n <= 0 {
		return
	}
	run((n+span-1)/span, func(s int) {
		i0 := s * span
		fn(i0, min(i0+span, n))
	})
}
