package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// bandsPer is the banded workload the helping tests share: a task of
// several loops whose bands write disjoint slots of out.
func bandsPer(out []uint64, seed uint64) {
	For(len(out), func(i int) {
		v := seed + uint64(i)
		for k := 0; k < 200; k++ {
			v = v*6364136223846793005 + 1442695040888963407
		}
		out[i] = v
	})
	ForRows(len(out), func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			out[y] ^= out[y] >> 17
		}
	})
}

// TestHelpingJoinOutputPoolIndependent runs loops inside Go tasks while
// the caller runs its own loops and then joins, which helps: the output
// must be the same at every pool size.
func TestHelpingJoinOutputPoolIndependent(t *testing.T) {
	run := func(workers int) []uint64 {
		defer SetWorkers(workers)()
		const n = 300
		task, caller := make([]uint64, n), make([]uint64, n)
		for round := uint64(0); round < 20; round++ {
			join := Go(func() { bandsPer(task, round) })
			bandsPer(caller, round+1000)
			join()
			for i := range task {
				caller[i] += task[i]
			}
		}
		return caller
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %x, want %x (pool size 1)", w, i, got[i], want[i])
			}
		}
	}
}

// TestJoinHelpsOwnTasksLoop: with two workers the one pool goroutine runs
// the Go task (or the join does), so the task's two-band loop has no other
// worker. Each band waits until the other has started; the loop can only
// finish if the joining goroutine (or the pool goroutine) runs one of the
// bands.
func TestJoinHelpsOwnTasksLoop(t *testing.T) {
	defer SetWorkers(2)()
	var started [2]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	var stuck atomic.Bool
	join := Go(func() {
		For(2, func(i int) {
			close(started[i])
			select {
			case <-started[1-i]:
			case <-time.After(10 * time.Second):
				stuck.Store(true)
			}
		})
	})
	join()
	if stuck.Load() {
		t.Fatal("a band waited 10 s for its sibling: the join did not run a band of its task's loop")
	}
}

// TestHelpedBandPanicReRaisedOnceByOwner: a band that panics on the
// joining goroutine is re-raised by the loop's owner — exactly once — and
// never by the helper.
func TestHelpedBandPanicReRaisedOnceByOwner(t *testing.T) {
	defer SetWorkers(2)()
	inBand0 := make(chan struct{})
	band1Done := make(chan struct{})
	var raised atomic.Int32
	var msg atomic.Value
	join := Go(func() {
		defer func() {
			if v := recover(); v != nil {
				raised.Add(1)
				msg.Store(fmt.Sprint(v))
			}
		}()
		For(2, func(i int) {
			if i == 0 {
				// The owner holds band 0 until the joiner has run band 1.
				close(inBand0)
				<-band1Done
				return
			}
			defer close(band1Done)
			panic("helped-boom")
		})
	})
	<-inBand0
	join() // helps: band 1 panics here, on the joining goroutine
	if n := raised.Load(); n != 1 {
		t.Fatalf("loop owner raised %d panics, want exactly 1", n)
	}
	if s, _ := msg.Load().(string); !strings.Contains(s, "helped-boom") {
		t.Fatalf("owner raised %q, want the band's panic value inside", s)
	}
	checkTableFree(t)
}

// TestJoinNeverReturnsBeforeTask: however much helping a join does —
// of its own task's loops or another task's — it returns only after its
// task has finished.
func TestJoinNeverReturnsBeforeTask(t *testing.T) {
	defer SetWorkers(3)()
	for round := 0; round < 200; round++ {
		var a, b atomic.Bool
		out := make([]uint64, 64)
		other := make([]uint64, 64)
		joinA := Go(func() {
			bandsPer(out, uint64(round))
			a.Store(true)
		})
		joinB := Go(func() {
			bandsPer(other, uint64(round)+7)
			b.Store(true)
		})
		joinA()
		if !a.Load() {
			t.Fatalf("round %d: join returned before its task finished", round)
		}
		joinB()
		if !b.Load() {
			t.Fatalf("round %d: join returned before its task finished", round)
		}
	}
	checkTableFree(t)
}

// TestPublishAllocatesNothing: opening and closing a loop, alone or while
// a Go task is in flight, must not touch the heap, beyond what the
// sequential loop already costs.
func TestPublishAllocatesNothing(t *testing.T) {
	defer SetWorkers(2)()
	sink := make([]int, 64)
	fn := func(i int) { sink[i]++ }
	if a := testing.AllocsPerRun(100, func() { For(len(sink), fn) }); a != 0 {
		t.Fatalf("a published loop allocated %.1f times per run, want 0", a)
	}
	release := make(chan struct{})
	join := Go(func() { <-release })
	defer func() {
		close(release)
		join()
	}()
	if a := testing.AllocsPerRun(100, func() { For(len(sink), fn) }); a != 0 {
		t.Fatalf("a loop published beside a Go task allocated %.1f times per run, want 0", a)
	}
}

// TestHelpingKeepsConcurrencyBound: counting the joiner, no more than
// Workers() goroutines ever run bands at once.
func TestHelpingKeepsConcurrencyBound(t *testing.T) {
	defer SetWorkers(2)()
	var cur, peak atomic.Int64
	band := func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		cur.Add(-1)
	}
	for round := 0; round < 20; round++ {
		join := Go(func() { For(16, band) })
		join()
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent bands, pool size is 2", p)
	}
}

// TestFinishedTaskDrainsOpenLoop: with two workers the one pool goroutine
// runs the Go task, so the caller's two-band loop has no other worker. The
// owner holds band 0 until band 1 has started, and nobody joins: only the
// pool goroutine, picking up the open loop once the task's fn returns, can
// run band 1.
func TestFinishedTaskDrainsOpenLoop(t *testing.T) {
	defer SetWorkers(2)()
	release := make(chan struct{})
	var fnDone, afterFn, stuck atomic.Bool
	join := Go(func() {
		<-release
		fnDone.Store(true)
	})
	band1 := make(chan struct{})
	For(2, func(i int) {
		if i == 0 {
			close(release)
			select {
			case <-band1:
			case <-time.After(10 * time.Second):
				stuck.Store(true)
			}
			return
		}
		afterFn.Store(fnDone.Load())
		close(band1)
	})
	join()
	if stuck.Load() {
		t.Fatal("band 1 did not start within 10 s: the pool goroutine did not pick up the open loop")
	}
	if !afterFn.Load() {
		t.Fatal("band 1 ran before the task's fn returned")
	}
	checkTableFree(t)
}

// TestDrainedBandPanicReRaisedByOwner: a band that panics on the pool
// goroutine that ran the Go task is re-raised by the loop's owner, and
// join, whose task did not panic, returns normally.
func TestDrainedBandPanicReRaisedByOwner(t *testing.T) {
	defer SetWorkers(2)()
	release := make(chan struct{})
	join := Go(func() { <-release })
	band1Done := make(chan struct{})
	var raised string
	var stuck atomic.Bool
	func() {
		defer func() { raised = fmt.Sprint(recover()) }()
		For(2, func(i int) {
			if i == 0 {
				close(release)
				select {
				case <-band1Done:
				case <-time.After(10 * time.Second):
					stuck.Store(true)
				}
				return
			}
			defer close(band1Done)
			panic("drained-boom")
		})
	}()
	join()
	if stuck.Load() {
		t.Fatal("band 1 did not run within 10 s: the pool goroutine did not pick up the open loop")
	}
	if !strings.Contains(raised, "drained-boom") {
		t.Fatalf("owner raised %q, want the drained band's panic value inside", raised)
	}
	checkTableFree(t)
}

// TestShrunkPoolStaysAsleep: after a run at eight workers has started
// seven pool goroutines, a run at two never has more than two goroutines
// running indices at once: the pool goroutines beyond the new size stay
// asleep.
func TestShrunkPoolStaysAsleep(t *testing.T) {
	band := func(cur, peak *atomic.Int64) func(int) {
		return func(int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(50 * time.Microsecond)
			cur.Add(-1)
		}
	}
	restore := SetWorkers(8)
	var cur, peak atomic.Int64
	For(64, band(&cur, &peak))
	restore()

	defer SetWorkers(2)()
	cur.Store(0)
	peak.Store(0)
	for round := 0; round < 20; round++ {
		For(16, band(&cur, &peak))
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent indices after shrinking the pool to 2", p)
	}
	checkTableFree(t)
}
