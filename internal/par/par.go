// Package par is the shared worker pool behind every per-pixel hot loop in
// the reproduction: macroblock encoding (internal/codec), resampling
// (internal/vmath), flow-guided warping (internal/warp), super-resolution
// (internal/sr), the procedural source render (internal/video) and the
// experiment harness fan-out (internal/experiments).
//
// Design constraints, in order:
//
//  1. Determinism. Callers must produce bit-identical output for any pool
//     size, including 1. The pool therefore never reorders reductions — it
//     only hands out index ranges; each task writes to a disjoint,
//     caller-owned slot. Task boundaries depend only on the problem size,
//     never on the number of workers.
//  2. One mechanism, bounded concurrency. Every parallel loop, and every
//     Go task as a loop of one index, is published to one fixed table of
//     open loops. Three kinds of goroutine claim indices from it with the
//     same atomic-cursor code: the loop's owner, which works its own loop
//     and then waits for the helpers still inside it; Workers()-1
//     long-lived pool goroutines, which run any open loop and otherwise
//     sleep; and a goroutine blocked in a Go join, which would otherwise
//     sit idle and runs open loops until its task has finished. No
//     goroutine is started per loop, so an inner loop on a pool goroutine
//     adds work to the table, not goroutines to the machine.
//  3. Cheap dispatch. Publishing takes one lock and allocates nothing;
//     indices are pulled from an atomic cursor. When the table is full a
//     loop runs sequentially on its caller.
//
// The pool size defaults to runtime.GOMAXPROCS(0), may be pinned with the
// NERVE_WORKERS environment variable (read once at process start), and may
// be overridden at runtime with SetWorkers (tests, benchmarks, the
// nervebench -workers flag). Pool goroutines are started on first use, up
// to Workers()-1, and live as long as the process; those beyond a later,
// smaller pool size stay asleep.
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

// maxOpen is the number of loops that can be open at once across the
// process.
const maxOpen = 32

// openLoop is one published loop: the owner's fn and index cursor, the
// helpers inside it, and the first panic any of its indices raised. A slot
// is free when fn is nil.
type openLoop struct {
	fn       func(i int) // guarded by mu
	tasks    int
	cursor   atomic.Int64   // next index to claim
	finished atomic.Int64   // indices that have returned, panicked or exited
	helpers  sync.WaitGroup // Add only under mu while the cursor has indices left
	pan      any            // first panic; guarded by mu
}

var (
	// mu guards the slots and started; wake is signalled when a loop is
	// published and when a Go task finishes.
	mu      sync.Mutex
	wake    = sync.NewCond(&mu)
	loops   [maxOpen]openLoop
	started int // pool goroutines started so far
)

// publish starts pool goroutines up to Workers()-1, claims a free slot for
// a loop of tasks indices and wakes the sleepers. It returns nil when
// every slot is taken.
func publish(tasks int, fn func(i int)) *openLoop {
	mu.Lock()
	defer mu.Unlock()
	for ; started < Workers()-1; started++ {
		go help(started, nil)
	}
	for k := range loops {
		if l := &loops[k]; l.fn == nil {
			l.fn, l.tasks = fn, tasks
			l.cursor.Store(0)
			l.finished.Store(0)
			wake.Broadcast()
			return l
		}
	}
	return nil
}

// help runs indices of open loops on the calling goroutine, sleeping while
// none has an index left to claim. Pool goroutine id (task nil) helps for
// ever, but only while id < Workers()-1; a Go joiner helps until its task
// has finished.
func help(id int, task *openLoop) {
	mu.Lock()
	for task == nil || !task.done() {
		var l *openLoop
		if task != nil || id < Workers()-1 {
			l = unclaimed()
		}
		if l == nil {
			wake.Wait()
			continue
		}
		l.helpers.Add(1)
		mu.Unlock()
		l.assist(task)
		mu.Lock()
	}
	mu.Unlock()
}

// unclaimed returns an open loop with indices left to claim, or nil. The
// caller holds mu.
func unclaimed() *openLoop {
	for k := range loops {
		if l := &loops[k]; l.fn != nil && l.cursor.Load() < int64(l.tasks) {
			return l
		}
	}
	return nil
}

// assist is a helper's stay in l; leaving is deferred so the owner is
// released even if an index ends the helping goroutine (runtime.Goexit).
func (l *openLoop) assist(task *openLoop) {
	defer l.helpers.Done()
	l.work(task)
}

// work claims and runs indices of l until its cursor is exhausted or, for
// a joiner, its own task has finished (task non-nil). A panicking index is
// recorded for the owner and drains the cursor.
func (l *openLoop) work(task *openLoop) {
	running := false
	defer func() {
		if v := recover(); v != nil {
			mu.Lock()
			if l.pan == nil {
				l.pan = v
			}
			mu.Unlock()
			l.cursor.Store(int64(l.tasks))
		}
		if running {
			l.finish()
		}
	}()
	for task == nil || !task.done() {
		i := int(l.cursor.Add(1)) - 1
		if i >= l.tasks {
			return
		}
		running = true
		l.fn(i)
		running = false
		l.finish()
	}
}

// finish counts one index of l as finished. A loop of one index is a Go
// task, whose joiner may be asleep waiting for it.
func (l *openLoop) finish() {
	if l.finished.Add(1) == 1 && l.tasks == 1 {
		mu.Lock()
		wake.Broadcast()
		mu.Unlock()
	}
}

// done reports whether every index of l has finished.
func (l *openLoop) done() bool { return l.finished.Load() >= int64(l.tasks) }

// retire closes l to new helpers, waits for the ones inside it, frees the
// slot and re-raises the first panic of any index on the owner.
func (l *openLoop) retire() {
	// The cursor is already drained unless the owner is unwinding without
	// a panic (runtime.Goexit); either way no index may start. Taking mu
	// after the store orders every helper's Add before the Wait.
	l.cursor.Store(int64(l.tasks))
	mu.Lock()
	mu.Unlock()
	l.helpers.Wait()
	mu.Lock()
	v := l.pan
	l.fn, l.pan = nil, nil
	mu.Unlock()
	if v != nil {
		panic(fmt.Sprintf("par: worker panicked: %v", v))
	}
}

// run executes fn(i) for every i in [0, tasks). The caller's goroutine
// works the loop's cursor in ascending index order alongside whichever
// pool goroutines and joiners claim indices of it, then waits for them.
func run(tasks int, fn func(i int)) {
	if tasks <= 0 {
		return
	}
	var l *openLoop
	if tasks > 1 && Workers() > 1 {
		l = publish(tasks, fn)
	}
	if l == nil {
		for i := 0; i < tasks; i++ {
			fn(i)
		}
		return
	}
	defer l.retire()
	l.work(nil)
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

// Go runs fn as a pool task and returns a join func that blocks until fn
// has finished. It is the pool's task-parallel primitive — used by the
// frame pipeline (internal/core) to overlap whole stages, where
// For/ForRows overlap loop iterations — and fn is published as an open
// loop of one index, so the first idle pool goroutine starts it.
//
// join runs fn itself if no goroutine has claimed it yet; so does the
// first join when the pool size is 1 or the table is full, preserving the
// sequential schedule and its bit-identical results. A join whose task
// is running elsewhere runs indices of open loops — the task's own loops
// or any other — until fn has returned, then returns. join re-raises any
// panic from fn on the joining goroutine, and is idempotent — every call
// after the first returns immediately. Call join: the task holds its slot
// of the table until then.
func Go(fn func()) (join func()) {
	var l *openLoop
	if Workers() > 1 {
		l = publish(1, func(int) { fn() })
	}
	joined := false
	return func() {
		if joined {
			return
		}
		joined = true
		if l == nil {
			fn()
			return
		}
		defer l.retire()
		l.work(nil)
		help(0, l)
	}
}
