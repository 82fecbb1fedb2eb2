package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	defer SetWorkers(0)()
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestSetWorkersRestore(t *testing.T) {
	restore := SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	inner := SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d after SetWorkers(7)", Workers())
	}
	inner()
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after restore, want 3", Workers())
	}
	restore()
}

func TestForCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		restore := SetWorkers(w)
		const n = 1000
		hits := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
		restore()
	}
}

func TestForZeroAndNegative(t *testing.T) {
	calls := 0
	For(0, func(int) { calls++ })
	For(-5, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("fn called %d times for empty ranges", calls)
	}
}

// TestForRowsCoverage: ForRows bands, and ForSpans spans of any size,
// are disjoint, cover [0, h) exactly and start at multiples of their size,
// at every pool size.
func TestForRowsCoverage(t *testing.T) {
	for _, span := range []int{0, 1, 3, 4096} { // 0: ForRows
		for _, h := range []int{1, 7, 8, 9, 100, 1080, 8193} {
			for _, w := range []int{1, 4} {
				restore := SetWorkers(w)
				covered := make([]int32, h)
				size, loop := span, func(fn func(y0, y1 int)) { ForSpans(h, span, fn) }
				if span == 0 {
					size, loop = forRowsGrain, func(fn func(y0, y1 int)) { ForRows(h, fn) }
				}
				loop(func(y0, y1 int) {
					if y0 >= y1 || y0 < 0 || y1 > h || y0%size != 0 || (y1-y0 != size && y1 != h) {
						t.Errorf("bad band [%d,%d) for h=%d size=%d", y0, y1, h, size)
					}
					for y := y0; y < y1; y++ {
						atomic.AddInt32(&covered[y], 1)
					}
				})
				for y, c := range covered {
					if c != 1 {
						t.Fatalf("h=%d size=%d workers=%d: row %d covered %d times", h, size, w, y, c)
					}
				}
				restore()
			}
		}
	}
}

func TestNestedLoopsComplete(t *testing.T) {
	// A nested parallel loop must neither deadlock nor oversubscribe: the
	// inner loops are published to the same table the pool goroutines
	// already serve.
	defer SetWorkers(4)()
	var total atomic.Int64
	For(8, func(i int) {
		ForRows(64, func(y0, y1 int) {
			total.Add(int64(y1 - y0))
		})
	})
	if total.Load() != 8*64 {
		t.Fatalf("nested loops covered %d rows, want %d", total.Load(), 8*64)
	}
}

func TestConcurrencyBound(t *testing.T) {
	defer SetWorkers(4)()
	var cur, peak atomic.Int64
	For(64, func(int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		// Nested loop on a pool goroutine: must not add workers beyond
		// the pool size.
		ForRows(16, func(y0, y1 int) {})
		cur.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("observed %d concurrent workers, pool size is 4", p)
	}
	checkTableFree(t)
}

func TestPanicPropagates(t *testing.T) {
	defer SetWorkers(4)()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic in worker was swallowed")
		}
		if s := fmt.Sprint(v); !strings.Contains(s, "kaboom") {
			t.Fatalf("recovered %q, want original panic value inside", s)
		}
		checkTableFree(t)
	}()
	For(100, func(i int) {
		if i == 13 {
			panic("kaboom")
		}
	})
}

func TestSequentialFallbackSameGoroutine(t *testing.T) {
	// With a pool of 1 the loop must run inline on the caller's goroutine
	// in ascending index order.
	defer SetWorkers(1)()
	var got []int
	For(10, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("sequential order broken: got[%d] = %d", i, v)
		}
	}
	if len(got) != 10 {
		t.Fatalf("visited %d indices, want 10", len(got))
	}
}

// checkTableFree fails the test unless every open-loop slot is free: a
// loop or Go task that has returned must have retired its slot.
func checkTableFree(t *testing.T) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	for k := range loops {
		if loops[k].fn != nil {
			t.Fatalf("open-loop slot %d still taken", k)
		}
	}
}

func BenchmarkForRowsOverhead(b *testing.B) {
	sink := make([]float32, 1080*16)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		ForRows(1080, func(y0, y1 int) {
			for y := y0; y < y1; y++ {
				sink[y%len(sink)] += 1
			}
		})
	}
}
