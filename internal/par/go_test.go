package par

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestGoRunsAndJoins(t *testing.T) {
	defer SetWorkers(4)()
	var ran atomic.Bool
	join := Go(func() { ran.Store(true) })
	join()
	if !ran.Load() {
		t.Fatal("fn did not run before join returned")
	}
	join() // idempotent
}

func TestGoInlineFallbackWhenBudgetSpent(t *testing.T) {
	defer SetWorkers(1)()
	ran := false
	join := Go(func() { ran = true })
	if ran {
		t.Fatal("pool size 1: fn must not run before join (sequential schedule)")
	}
	join()
	if !ran {
		t.Fatal("fn did not run at join")
	}
	join() // idempotent in the inline path too
}

func TestGoJoinReRaisesPanic(t *testing.T) {
	defer SetWorkers(4)()
	join := Go(func() { panic("boom") })
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("join did not re-raise the task panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("panic value %v does not carry the original message", v)
		}
	}()
	join()
}

func TestGoReleasesBudget(t *testing.T) {
	defer SetWorkers(2)()
	for i := 0; i < 100; i++ {
		join := Go(func() {})
		join()
	}
	// After every task joined, every table slot must be free again —
	// otherwise the table would fill and every loop run sequentially.
	checkTableFree(t)
}

func TestGoOverlapsWithForLoops(t *testing.T) {
	defer SetWorkers(4)()
	var sum atomic.Int64
	join := Go(func() {
		For(100, func(i int) { sum.Add(int64(i)) })
	})
	For(100, func(i int) { sum.Add(int64(i)) })
	join()
	if got := sum.Load(); got != 9900 {
		t.Fatalf("sum = %d, want 9900", got)
	}
}
