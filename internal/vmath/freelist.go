package vmath

import "sync"

// freeList is one pool bucket: a mutex-guarded LIFO stack of free buffers,
// owned by the pool. Unlike a sync.Pool it never loses an entry — not to a
// GC cycle, not to a goroutine moving between Ps, not to the race
// detector's random drops — so a warmed frame loop gets the same buffers
// back on every run and its steady state is exactly allocation-free.
//
// The stack is bounded (see freeListLimit): a Put that finds it full is
// refused and the buffer left to the GC, so a loop that keeps Putting
// foreign planes nobody Gets cannot grow it without limit.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// pop removes and returns the most recently pushed buffer, or nil when the
// list is empty.
func (f *freeList[T]) pop() *T {
	f.mu.Lock()
	n := len(f.free)
	if n == 0 {
		f.mu.Unlock()
		return nil
	}
	b := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	f.mu.Unlock()
	return b
}

// push adds b unless the list already holds limit buffers, and reports
// whether it did.
func (f *freeList[T]) push(b *T, limit int) bool {
	f.mu.Lock()
	if len(f.free) >= limit {
		f.mu.Unlock()
		return false
	}
	f.free = append(f.free, b)
	f.mu.Unlock()
	return true
}

const (
	// A bucket keeps at most freeListMax buffers and at most freeListBytes
	// bytes of them (but always at least one buffer). A frame loop holds
	// far fewer: the play workloads of perfbench peak at 6 free planes in
	// any bucket. A 1080p float plane lives in the 8 MiB bucket, which so
	// keeps up to 32 of them; small buckets keep 64.
	freeListMax   = 64
	freeListBytes = 256 << 20
)

// freeListLimit is the entry bound of a bucket whose buffers are
// bufBytes bytes each.
func freeListLimit(bufBytes int) int {
	return min(freeListMax, max(1, freeListBytes/bufBytes))
}
