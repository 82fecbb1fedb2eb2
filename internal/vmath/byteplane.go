package vmath

import (
	"fmt"

	"nerve/internal/par"
	"nerve/internal/telemetry"
)

// BytePlane is a dense 2-D uint8 image stored row-major: Pix[y*W+x]. It is
// the byte shadow of a Plane: pixels rounded to the nominal 8-bit [0, 255]
// range. The codec's motion-search kernels run on byte shadows so they can
// process 8 pixels per uint64 word; everything that reconstructs pixels
// stays on float32 Planes.
type BytePlane struct {
	W, H int
	Pix  []uint8
}

// NewBytePlane allocates a zeroed W×H byte plane. It panics if either
// dimension is negative.
func NewBytePlane(w, h int) *BytePlane {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("vmath: invalid plane size %dx%d", w, h))
	}
	planeAllocs.Add(1)
	return &BytePlane{W: w, H: h, Pix: make([]uint8, w*h)}
}

// AtClamp returns the pixel at (x, y) with coordinates clamped to the plane
// boundary (replicate padding), like Plane.AtClamp.
func (p *BytePlane) AtClamp(x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// PixelByte rounds a nominal [0, 255] float32 pixel to its byte value,
// clamping out-of-range inputs (round half away from zero on the in-range
// part, which is non-negative, so +0.5 truncation is exact).
func PixelByte(v float32) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 254.5 {
		return 255
	}
	return uint8(v + 0.5)
}

// FromPlane refreshes p in place as the byte shadow of src (same
// dimensions), rounding each pixel with PixelByte. It returns p for
// chaining; this is the CopyFrom of byte shadows — persistent shadows hold
// one pooled BytePlane and refresh it every frame. Row bands run on the
// pool.
func (p *BytePlane) FromPlane(src *Plane) *BytePlane {
	if p.W != src.W || p.H != src.H {
		panic(fmt.Sprintf("vmath: size mismatch %dx%d vs %dx%d", p.W, p.H, src.W, src.H))
	}
	par.ForRows(p.H, func(y0, y1 int) {
		dst := p.Pix[y0*p.W : y1*p.W]
		for i, v := range src.Pix[y0*p.W : y1*p.W] {
			dst[i] = PixelByte(v)
		}
	})
	return p
}

// BytePool is the BytePlane analogue of Pool: a size-bucketed,
// concurrency-safe free list of byte backing arrays, with the same
// ownership contract (Get → caller owns until Put; Put optional; foreign
// or oversize planes are dropped, never adopted incorrectly; a full bucket
// drops further Puts). Buckets are owned, bounded LIFO free lists of
// power-of-two byte counts from 1<<6 to 1<<24. Misses count toward
// PlaneAllocs, so the steady-state allocation proofs cover byte shadows
// too.
type BytePool struct {
	buckets [poolBuckets]freeList[BytePlane]
	stats   poolCounters
	check   bytePoolChecker
}

// DefaultBytePool is the process-wide byte-plane pool used by GetBytes and
// PutBytes.
var DefaultBytePool = &BytePool{}

var (
	cBytePoolHit  = telemetry.NewCounter("pool.byte_hit")
	cBytePoolMiss = telemetry.NewCounter("pool.byte_miss")
)

// Get returns a w×h byte plane whose contents are undefined (dirty). The
// caller owns it until Put.
func (p *BytePool) Get(w, h int) *BytePlane {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("vmath: invalid plane size %dx%d", w, h))
	}
	n := w * h
	idx := bucketIndex(n)
	if idx < 0 {
		p.stats.misses.Add(1)
		p.stats.bytesLive.Add(int64(n))
		if p == DefaultBytePool {
			cBytePoolMiss.Add(1)
		}
		return NewBytePlane(w, h)
	}
	bcap := poolBucketCap(idx)
	pl := p.buckets[idx].pop()
	if pl == nil {
		p.stats.misses.Add(1)
		if p == DefaultBytePool {
			cBytePoolMiss.Add(1)
		}
		planeAllocs.Add(1)
		pl = &BytePlane{Pix: make([]uint8, bcap)}
	} else {
		p.stats.hits.Add(1)
		if p == DefaultBytePool {
			cBytePoolHit.Add(1)
		}
		p.check.onGet(pl)
	}
	p.stats.bytesLive.Add(int64(bcap))
	pl.W, pl.H = w, h
	pl.Pix = pl.Pix[:cap(pl.Pix)][:n]
	return pl
}

// Put returns pl to the pool; pl and its Pix slice must not be used again
// by the caller. Planes whose backing capacity is not an exact bucket size
// are dropped, and so are planes that find their bucket full. Put(nil) is
// a no-op.
func (p *BytePool) Put(pl *BytePlane) {
	if pl == nil {
		return
	}
	c := cap(pl.Pix)
	idx := -1
	if c >= 1<<poolMinShift && c <= 1<<poolMaxShift && c&(c-1) == 0 {
		idx = bucketIndex(c)
	}
	delta := int64(len(pl.Pix))
	if idx >= 0 {
		delta = int64(c)
	}
	p.stats.bytesLive.Add(-delta)
	if idx < 0 {
		p.stats.drops.Add(1)
		return
	}
	p.check.onPut(pl)
	if !p.buckets[idx].push(pl, freeListLimit(c)) {
		p.check.onGet(pl) // dropped, not free: forget it
		p.stats.drops.Add(1)
		return
	}
	p.stats.puts.Add(1)
}

// Stats returns a snapshot of the pool's counters (BytesLive in bytes, not
// float32 elements).
func (p *BytePool) Stats() PoolStats {
	return p.stats.snapshot()
}

// GetBytes returns a dirty w×h byte plane from the default byte pool.
func GetBytes(w, h int) *BytePlane { return DefaultBytePool.Get(w, h) }

// PutBytes returns a byte plane to the default byte pool.
func PutBytes(pl *BytePlane) { DefaultBytePool.Put(pl) }
