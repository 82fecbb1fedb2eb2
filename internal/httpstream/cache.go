package httpstream

import (
	"sync"

	"nerve/internal/telemetry"
)

// Cache telemetry (see OBSERVABILITY.md): hits/misses/evictions are
// monotonic; bytes_live is a gauge (evictions subtract) tracking the
// resident payload bytes across every Cache in the process.
var (
	cCacheHits      = telemetry.NewCounter("cache.hits")
	cCacheMisses    = telemetry.NewCounter("cache.misses")
	cCacheEvictions = telemetry.NewCounter("cache.evictions")
	cCacheBytesLive = telemetry.NewCounter("cache.bytes_live")
)

// DefaultCacheBytes is the segment cache budget when ServerConfig leaves
// CacheBytes zero: enough for every rung of a demo stream, small enough
// that a long-running origin holds a bounded working set.
const DefaultCacheBytes = 64 << 20

// Cache is a bounded byte-budget LRU of immutable payloads. It replaces
// the origin's previously unbounded segment/codes maps: Put evicts
// least-recently-used entries until the new payload fits, so resident
// bytes never exceed the budget; a payload larger than the whole budget
// is refused (served uncached) rather than wiping the cache.
//
// Values are aliased, not copied — callers must treat a stored or
// returned []byte as immutable. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	m      map[string]*cacheEntry
	// head is most recently used, tail least. Intrusive doubly-linked
	// list; the sentinel-free empty state is nil head+tail.
	head, tail *cacheEntry

	hits, misses, evictions int64
}

type cacheEntry struct {
	key        string
	val        []byte
	prev, next *cacheEntry
}

// NewCache builds a cache holding at most budget payload bytes
// (DefaultCacheBytes when budget <= 0).
func NewCache(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &Cache{budget: budget, m: make(map[string]*cacheEntry)}
}

// Get returns the payload stored under key, marking it most recently
// used.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		cCacheMisses.Add(1)
		return nil, false
	}
	c.hits++
	cCacheHits.Add(1)
	c.moveToFront(e)
	return e.val, true
}

// Put stores val under key, evicting from the LRU end until it fits.
// It reports whether the payload was cached: a payload larger than the
// entire budget is not (the caller serves it uncached), and a key
// already present is refreshed in place.
func (c *Cache) Put(key string, val []byte) bool {
	n := int64(len(val))
	if n > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.bytes += n - int64(len(e.val))
		cCacheBytesLive.Add(n - int64(len(e.val)))
		e.val = val
		c.moveToFront(e)
		return true
	}
	for c.bytes+n > c.budget && c.tail != nil {
		c.evict(c.tail)
	}
	e := &cacheEntry{key: key, val: val}
	c.m[key] = e
	c.bytes += n
	cCacheBytesLive.Add(n)
	c.pushFront(e)
	return true
}

// Stats returns the cache's lifetime counters and current residency.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		BytesLive: c.bytes,
		Entries:   int64(len(c.m)),
		Budget:    c.budget,
	}
}

// CacheStats is a point-in-time view of one Cache (or, aggregated, of a
// cluster's caches) — the cache block of BENCH_load.json.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	BytesLive int64 `json:"bytes_live"`
	Entries   int64 `json:"entries"`
	Budget    int64 `json:"budget"`
}

// Add accumulates another cache's stats (cluster aggregation). Budget
// and residency sum; they remain comparable (sum live ≤ sum budget).
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.BytesLive += o.BytesLive
	s.Entries += o.Entries
	s.Budget += o.Budget
}

// HitRatio returns hits / (hits + misses), 0 when the cache is unused.
func (s CacheStats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// peek returns the payload stored under key like Get, without counting
// a hit or a miss and without touching the LRU order.
func (c *Cache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	return e.val, true
}

// ---- intrusive list plumbing (c.mu held) ----

func (c *Cache) evict(e *cacheEntry) {
	c.unlink(e)
	delete(c.m, e.key)
	c.bytes -= int64(len(e.val))
	cCacheBytesLive.Add(-int64(len(e.val)))
	c.evictions++
	cCacheEvictions.Add(1)
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
