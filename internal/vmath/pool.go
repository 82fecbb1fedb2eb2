package vmath

import (
	"fmt"
	"sync/atomic"

	"nerve/internal/telemetry"
)

// Pool is a size-bucketed, concurrency-safe free list of Plane backing
// arrays. Get hands out a dirty (or zeroed, see GetZeroed) plane whose
// backing array comes from the bucket of the smallest power-of-two element
// count that fits; Put returns a plane for reuse. Each bucket is an owned,
// bounded LIFO free list (freeList): a warmed loop gets its own planes back
// whatever the GC or the scheduler do, and a full bucket refuses further
// Puts, leaving those planes to the GC.
//
// Ownership contract (see DESIGN.md "Memory model"):
//
//   - A plane returned by Get is owned by the caller until it calls Put.
//   - Put is always optional: a plane that is never Put is simply collected
//     by the GC. Skipping Put costs garbage, never correctness.
//   - Put transfers ownership to the pool. The caller must not retain any
//     reference to the plane or its Pix slice afterwards. The poolcheck
//     build (-tags poolcheck) turns violations into panics or NaN-poisoned
//     pixels instead of silent frame corruption.
//   - Planes whose backing array did not come from this pool (Clone,
//     NewPlane, FromSlice results) may be Put too: if the
//     capacity matches a bucket size they are adopted, otherwise they are
//     silently dropped. Either way it is safe. A Put into a full bucket is
//     dropped the same way.
//
// The zero Pool is ready to use. Most code uses the package-level
// DefaultPool via the free functions Get, GetZeroed and Put.
type Pool struct {
	// buckets[i] holds planes whose Pix capacity is exactly
	// poolBucketCap(i) elements.
	buckets [poolBuckets]freeList[Plane]
	stats   poolCounters
	check   poolChecker
}

// PoolStats are a snapshot of a pool's cumulative counters, as returned by
// Pool.Stats and BytePool.Stats.
type PoolStats struct {
	// Hits counts Gets served from a free list.
	Hits int64
	// Misses counts Gets that had to allocate a fresh backing array
	// (including planes larger than the largest bucket).
	Misses int64
	// Puts counts planes accepted back into a bucket.
	Puts int64
	// Drops counts planes rejected by Put (capacity not a bucket size, or
	// the bucket full).
	Drops int64
	// BytesLive is the number of backing-array bytes currently handed out
	// by Get and not yet returned with Put.
	BytesLive int64
}

const (
	// poolMinShift..poolMaxShift bound the bucket element counts:
	// 1<<6 = 64 floats up to 1<<24 = 16.8M floats (64 MiB), enough for a
	// 4K plane. Larger requests are allocated exactly and never pooled.
	poolMinShift = 6
	poolMaxShift = 24
	poolBuckets  = poolMaxShift - poolMinShift + 1
)

// bucketIndex returns the bucket for n elements, or -1 when n exceeds the
// largest bucket. The bucket capacity is poolBucketCap(idx) >= n.
func bucketIndex(n int) int {
	if n <= 0 {
		return 0
	}
	for s := poolMinShift; s <= poolMaxShift; s++ {
		if n <= 1<<s {
			return s - poolMinShift
		}
	}
	return -1
}

func poolBucketCap(idx int) int { return 1 << (idx + poolMinShift) }

// DefaultPool is the process-wide plane pool used by the free functions
// Get, GetZeroed and Put, and by every pipeline stage in this repo.
var DefaultPool = &Pool{}

// Telemetry counters for the default pool. Registered at package init so
// they appear in telemetry.Snapshot once vmath is linked; each costs one
// gated atomic add per pool operation.
var (
	cPoolHit       = telemetry.NewCounter("pool.hit")
	cPoolMiss      = telemetry.NewCounter("pool.miss")
	cPoolBytesLive = telemetry.NewCounter("pool.bytes_live")
)

// Get returns a w×h plane whose contents are undefined (dirty). The caller
// owns it until Put. Callers must write every pixel they later read;
// kernels with partial writes should use GetZeroed. Panics if either
// dimension is negative, like NewPlane.
func (p *Pool) Get(w, h int) *Plane {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("vmath: invalid plane size %dx%d", w, h))
	}
	n := w * h
	idx := bucketIndex(n)
	if idx < 0 {
		// Too large to pool: exact allocation, never recycled.
		p.stats.misses.Add(1)
		p.stats.bytesLive.Add(int64(n) * 4)
		if p == DefaultPool {
			cPoolMiss.Add(1)
			cPoolBytesLive.Add(int64(n) * 4)
		}
		planeAllocs.Add(1)
		return &Plane{W: w, H: h, Pix: make([]float32, n)}
	}
	bcap := poolBucketCap(idx)
	pl := p.buckets[idx].pop()
	if pl == nil {
		p.stats.misses.Add(1)
		if p == DefaultPool {
			cPoolMiss.Add(1)
		}
		planeAllocs.Add(1)
		pl = &Plane{Pix: make([]float32, bcap)}
	} else {
		p.stats.hits.Add(1)
		if p == DefaultPool {
			cPoolHit.Add(1)
		}
		p.check.onGet(pl)
	}
	p.stats.bytesLive.Add(int64(bcap) * 4)
	if p == DefaultPool {
		cPoolBytesLive.Add(int64(bcap) * 4)
	}
	pl.W, pl.H = w, h
	pl.Pix = pl.Pix[:cap(pl.Pix)][:n]
	return pl
}

// GetZeroed is Get followed by zeroing the pixels — for kernels that only
// write some pixels and rely on the rest being 0 (masks, sparse targets).
func (p *Pool) GetZeroed(w, h int) *Plane {
	pl := p.Get(w, h)
	clear(pl.Pix)
	return pl
}

// Put returns pl to the pool. pl and its Pix slice must not be used again
// by the caller. Planes whose backing capacity is not an exact bucket size
// (foreign allocations, oversize planes) are dropped, not adopted — Put is
// safe to call on any plane, and so are planes that find their bucket
// full. Put(nil) is a no-op.
func (p *Pool) Put(pl *Plane) {
	if pl == nil {
		return
	}
	c := cap(pl.Pix)
	idx := -1
	if c >= 1<<poolMinShift && c <= 1<<poolMaxShift && c&(c-1) == 0 {
		idx = bucketIndex(c)
	}
	delta := int64(len(pl.Pix)) * 4
	if idx >= 0 {
		delta = int64(c) * 4
	}
	p.stats.bytesLive.Add(-delta)
	if p == DefaultPool {
		cPoolBytesLive.Add(-delta)
	}
	if idx < 0 {
		p.stats.drops.Add(1)
		return
	}
	p.check.onPut(pl)
	if !p.buckets[idx].push(pl, freeListLimit(c*4)) {
		p.check.onGet(pl) // dropped, not free: forget it
		p.stats.drops.Add(1)
		return
	}
	p.stats.puts.Add(1)
}

// poolCounters are a pool's live counters, added to on every Get/Put.
// atomic.Int64 keeps each one 64-bit aligned on 32-bit platforms, where an
// atomic add on a plain int64 field at this offset in Pool panics.
type poolCounters struct {
	hits, misses, puts, drops, bytesLive atomic.Int64
}

func (c *poolCounters) snapshot() PoolStats {
	return PoolStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Drops:     c.drops.Load(),
		BytesLive: c.bytesLive.Load(),
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return p.stats.snapshot()
}

// Get returns a dirty w×h plane from the default pool. See Pool.Get.
func Get(w, h int) *Plane { return DefaultPool.Get(w, h) }

// GetZeroed returns a zeroed w×h plane from the default pool.
func GetZeroed(w, h int) *Plane { return DefaultPool.GetZeroed(w, h) }

// Put returns a plane to the default pool. See Pool.Put.
func Put(pl *Plane) { DefaultPool.Put(pl) }

// planeAllocs counts backing-array allocations performed by this package —
// NewPlane plus pool misses. The steady-state regression tests assert it
// stays flat across warmed-up frame loops.
var planeAllocs atomic.Int64

// PlaneAllocs returns the number of plane backing-array allocations made by
// this package since process start (NewPlane calls plus pool misses).
// Pool hits, FromSlice and Clone-free Into kernels do not move it.
func PlaneAllocs() int64 { return planeAllocs.Load() }
