package vmath

import (
	"runtime"
	"sync"
	"testing"

	"nerve/internal/par"
)

// TestPoolBucketReuse proves recycling: a Put plane's backing array is the
// one handed back by the next same-bucket Get.
func TestPoolBucketReuse(t *testing.T) {
	var p Pool
	a := p.Get(32, 16)
	first := &a.Pix[0]
	p.Put(a)
	// 30×17 = 510 elements lands in the same 512-element bucket as 32×16.
	b := p.Get(30, 17)
	if &b.Pix[0] != first {
		t.Fatalf("Get after Put returned a fresh backing array, want the recycled one")
	}
	if b.W != 30 || b.H != 17 || len(b.Pix) != 510 {
		t.Fatalf("recycled plane has geometry %dx%d len %d, want 30x17 len 510", b.W, b.H, len(b.Pix))
	}
}

// TestPoolKeepsPlanesAcrossGC: the buckets are owned free lists, so GC
// cycles between a Put and the next Get must not cost a reuse. Planes are
// handed back in LIFO order.
func TestPoolKeepsPlanesAcrossGC(t *testing.T) {
	var p Pool
	a, b := p.Get(64, 64), p.Get(64, 64)
	pa, pb := &a.Pix[0], &b.Pix[0]
	p.Put(a)
	p.Put(b)
	runtime.GC()
	runtime.GC()
	c, d := p.Get(64, 64), p.Get(64, 64)
	if &c.Pix[0] != pb || &d.Pix[0] != pa {
		t.Fatal("planes Put before two GC cycles were not handed back, newest first")
	}
	if s := p.Stats(); s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats %+v, want 2 misses 2 hits", s)
	}
}

// TestPoolBucketBound: a bucket keeps at most freeListLimit planes; a Put
// into a full bucket is dropped and counted, and a Get drains what it
// kept without allocating.
func TestPoolBucketBound(t *testing.T) {
	for _, c := range []struct{ bytes, limit int }{
		{256, freeListMax}, // smallest bucket: the count cap
		{8 << 20, 32},      // 1080p float plane: 256 MiB of them
		{64 << 20, 4},      // largest bucket
		{1 << 30, 1},       // larger than the byte budget
	} {
		if got := freeListLimit(c.bytes); got != c.limit {
			t.Errorf("freeListLimit(%d) = %d, want %d", c.bytes, got, c.limit)
		}
	}
	const w, h = 8, 8 // the 64-element bucket
	var p Pool
	for i := 0; i < freeListMax+3; i++ {
		p.Put(NewPlane(w, h))
	}
	if s := p.Stats(); s.Puts != freeListMax || s.Drops != 3 {
		t.Fatalf("after %d Puts: %+v, want %d puts 3 drops", freeListMax+3, s, freeListMax)
	}
	before := PlaneAllocs()
	for i := 0; i < freeListMax; i++ {
		p.Get(w, h)
	}
	if d := PlaneAllocs() - before; d != 0 {
		t.Fatalf("draining the full bucket allocated %d planes, want 0", d)
	}
	p.Get(w, h)
	if d := PlaneAllocs() - before; d != 1 {
		t.Fatalf("Get from the empty bucket allocated %d planes, want 1", d)
	}
}

func TestPoolStatsCounters(t *testing.T) {
	var p Pool
	a := p.Get(16, 16) // miss
	if s := p.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first Get: %+v, want 1 miss 0 hits", s)
	}
	if s := p.Stats(); s.BytesLive != 16*16*4 {
		t.Fatalf("BytesLive = %d, want %d", s.BytesLive, 16*16*4)
	}
	p.Put(a)
	if s := p.Stats(); s.Puts != 1 || s.BytesLive != 0 {
		t.Fatalf("after Put: %+v, want 1 put 0 bytes live", s)
	}
	b := p.Get(16, 16) // hit
	if s := p.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after second Get: %+v, want 1 hit 1 miss", s)
	}
	p.Put(b)

	// A foreign plane whose capacity is not a bucket size is dropped.
	p.Put(FromSlice(10, 10, make([]float32, 100)))
	if s := p.Stats(); s.Drops != 1 {
		t.Fatalf("after foreign Put: %+v, want 1 drop", s)
	}
}

func TestPoolGetZeroed(t *testing.T) {
	var p Pool
	a := p.Get(8, 8)
	a.Fill(99)
	p.Put(a)
	b := p.GetZeroed(8, 8)
	for i, v := range b.Pix {
		if v != 0 {
			t.Fatalf("GetZeroed pixel %d = %v, want 0", i, v)
		}
	}
}

func TestPoolGetPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get(-1, 4) did not panic")
		}
	}()
	Get(-1, 4)
}

func TestBucketIndex(t *testing.T) {
	cases := []struct{ n, idx int }{
		{0, 0}, {1, 0}, {64, 0}, {65, 1}, {512, 3},
		{1 << 24, poolBuckets - 1}, {1<<24 + 1, -1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.n); got != c.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.n, got, c.idx)
		}
	}
}

// TestPoolConcurrent hammers one pool from many goroutines; run under -race
// this is the concurrency-safety proof for the shared DefaultPool.
func TestPoolConcurrent(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pl := p.Get(64+g, 32+i%7)
				pl.Fill(float32(g))
				if pl.Pix[0] != float32(g) {
					t.Errorf("goroutine %d read back %v", g, pl.Pix[0])
					return
				}
				p.Put(pl)
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolGetPutZeroAlloc proves the steady-state contract at the pool
// level: once a bucket is warm, Get+Put allocates nothing.
func TestPoolGetPutZeroAlloc(t *testing.T) {
	var p Pool
	p.Put(p.Get(64, 48)) // warm the bucket
	allocs := testing.AllocsPerRun(100, func() {
		pl := p.Get(64, 48)
		pl.Pix[0] = 1
		p.Put(pl)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v objects/op, want 0", allocs)
	}
}

// TestIntoKernelsZeroPlaneAlloc proves the destination-passing forms never
// allocate plane backing arrays once warm — the O(W·H) allocations the pool
// exists to eliminate. The par.ForRows closure headers (a few words each,
// heap-allocated because fn escapes into the worker pool) are the only
// permitted residue, bounded by a small constant per call.
func TestIntoKernelsZeroPlaneAlloc(t *testing.T) {
	defer par.SetWorkers(1)()
	src := Get(64, 48)
	for i := range src.Pix {
		src.Pix[i] = float32(i % 251)
	}
	big := Get(128, 96)
	gx := Get(64, 48)
	gy := Get(64, 48)
	defer func() { Put(src); Put(big); Put(gx); Put(gy) }()

	cases := []struct {
		name string
		fn   func()
	}{
		{"ResizeBilinearInto", func() { ResizeBilinearInto(big, src) }},
		{"ResizeBicubicInto", func() { ResizeBicubicInto(big, src) }},
		{"ResizeNearestInto", func() { ResizeNearestInto(big, src) }},
		{"GradientsInto", func() { GradientsInto(gx, gy, src) }},
		{"GradientMagnitudeInto", func() { GradientMagnitudeInto(gx, src) }},
		{"GaussianBlurInto", func() { GaussianBlurInto(gx, src, 0.8) }},
		{"UnsharpMaskInto", func() { UnsharpMaskInto(gx, src, 1.0, 0.2) }},
		{"CopyFrom", func() { gx.CopyFrom(src) }},
	}
	for _, c := range cases {
		c.fn() // warm pooled scratch and the tap cache
		before := PlaneAllocs()
		allocs := testing.AllocsPerRun(10, c.fn)
		if d := PlaneAllocs() - before; d != 0 {
			t.Errorf("%s allocated %d plane backing arrays, want 0", c.name, d)
		}
		if allocs > 6 {
			t.Errorf("%s allocates %v objects/op, want <= 6 (closure headers only)", c.name, allocs)
		}
	}
}
