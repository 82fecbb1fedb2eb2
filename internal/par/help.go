package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Helping joins and draining tasks. A Go task usually runs its loops with
// the budget spent (the task holds the spare slot), so they would run on
// the task's goroutine alone while the goroutine that started the task
// blocks in join. Instead, such a loop is published as an open loop, and a
// joiner claims band indices from open loops until its task has finished,
// sleeping while none has a band left. The same holds the other way round:
// the caller's own loops, started while the task runs, find the budget
// spent too, so the task's goroutine drains the open loops once fn has
// returned (drain) before it frees the slot. Which goroutine runs a band
// changes no output: every fn handed to the pool is pure per index and
// writes only its own slot.
//
// Open loops live in a fixed table, so publishing allocates nothing; when
// the table is full the loop simply runs unpublished. Loops are published
// only while some Go task is in flight, since only Go joins help.

// maxOpen is the number of loops that can be open at once across the
// process.
const maxOpen = 32

// Open-loop slot states, guarded by helpMu.
const (
	slotFree = iota
	slotOpen
	slotClosing // owner done pulling, waiting for helpers to leave
)

// openLoop is one published loop: the owner's fn and index cursor, the
// helpers inside it, and the first panic any of its bands raised.
type openLoop struct {
	state   int // guarded by helpMu
	fn      func(i int)
	tasks   int
	cursor  atomic.Int64
	helpers sync.WaitGroup // Add only under helpMu while slotOpen
	pan     firstPanic
}

var (
	// helpMu guards the slot states; helpCond wakes joiners when a loop is
	// published or a Go task finishes.
	helpMu   sync.Mutex
	helpCond = sync.NewCond(&helpMu)
	loops    [maxOpen]openLoop

	// activeGo counts Go tasks running on their own goroutine: the only
	// tasks whose joiners can help.
	activeGo atomic.Int64
)

// publish claims a free slot for a loop of tasks indices and wakes waiting
// joiners. It returns nil when every slot is taken.
func publish(tasks int, fn func(i int)) *openLoop {
	helpMu.Lock()
	defer helpMu.Unlock()
	for k := range loops {
		l := &loops[k]
		if l.state == slotFree {
			l.state, l.fn, l.tasks = slotOpen, fn, tasks
			l.cursor.Store(0)
			helpCond.Broadcast()
			return l
		}
	}
	return nil
}

// own runs the owner's share of l, then closes l to new helpers, waits for
// the ones inside it to finish their bands, frees the slot and re-raises
// the first panic of any band, on whichever goroutine it ran.
func (l *openLoop) own() {
	defer l.retire()
	l.work(nil)
}

func (l *openLoop) retire() {
	// The cursor is already drained unless the owner is unwinding without
	// a panic (runtime.Goexit); either way no new band may start.
	l.cursor.Store(int64(l.tasks))
	helpMu.Lock()
	l.state = slotClosing
	helpMu.Unlock()
	l.helpers.Wait()
	val, set := l.pan.val, l.pan.set
	helpMu.Lock()
	l.state, l.fn = slotFree, nil
	l.pan.val, l.pan.set = nil, false
	helpMu.Unlock()
	if set {
		panic(fmt.Sprintf("par: worker panicked: %v", val))
	}
}

// work claims and runs bands of l until its cursor is exhausted or, for a
// joining helper, its own task has finished (stop set; nil for the owner
// and for a draining task). A panicking band is
// recorded for the owner and drains the cursor.
func (l *openLoop) work(stop *atomic.Bool) {
	defer func() {
		if v := recover(); v != nil {
			l.pan.record(v)
			l.cursor.Store(int64(l.tasks))
		}
	}()
	for stop == nil || !stop.Load() {
		i := int(l.cursor.Add(1)) - 1
		if i >= l.tasks {
			return
		}
		l.fn(i)
	}
}

// help runs bands of open loops on the calling goroutine until done is
// set, sleeping while no open loop has an unclaimed band.
func help(done *atomic.Bool) {
	helpMu.Lock()
	for !done.Load() {
		l := unclaimed()
		if l == nil {
			helpCond.Wait()
			continue
		}
		l.helpers.Add(1)
		helpMu.Unlock()
		l.assist(done)
		helpMu.Lock()
	}
	helpMu.Unlock()
}

// assist is a helper's stay in l (done is nil for a draining task);
// leaving is deferred so the owner is released even if a band ends the
// helping goroutine (runtime.Goexit).
func (l *openLoop) assist(done *atomic.Bool) {
	defer l.helpers.Done()
	l.work(done)
}

// unclaimed returns an open loop with bands left to claim, or nil. The
// caller holds helpMu.
func unclaimed() *openLoop {
	for k := range loops {
		if l := &loops[k]; l.claimable() {
			return l
		}
	}
	return nil
}

// drain runs the unclaimed bands of the loops open when it starts, one
// pass over the table, on the calling goroutine. It never waits for a loop
// to be published, and a loop published behind the pass is left to its
// owner (and to joiners). A panicking band is recorded for its loop's
// owner, as for any helper.
func drain() {
	helpMu.Lock()
	for k := range loops {
		l := &loops[k]
		if !l.claimable() {
			continue
		}
		l.helpers.Add(1)
		helpMu.Unlock()
		l.assist(nil)
		helpMu.Lock()
	}
	helpMu.Unlock()
}

// claimable reports whether l is open with bands left to claim. The
// caller holds helpMu.
func (l *openLoop) claimable() bool {
	return l.state == slotOpen && l.cursor.Load() < int64(l.tasks)
}

// finished marks a Go task done and wakes its joiner if it is waiting for
// an open loop.
func finished(done *atomic.Bool) {
	done.Store(true)
	helpMu.Lock()
	helpCond.Broadcast()
	helpMu.Unlock()
}
