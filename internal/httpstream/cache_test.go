package httpstream

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"nerve/internal/video"
)

func pad(n int) []byte { return make([]byte, n) }

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(300)
	c.Put("a", pad(100))
	c.Put("b", pad(100))
	c.Put("c", pad(100))
	// Touch a: it becomes most recent, so the next eviction takes b.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", pad(100))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 1 eviction / 3 entries", st)
	}
}

func TestCacheByteBudgetEnforced(t *testing.T) {
	const budget = 1000
	c := NewCache(budget)
	sizes := []int{300, 500, 200, 400, 999, 100, 700}
	for i, n := range sizes {
		c.Put(fmt.Sprintf("k%d", i), pad(n))
		if st := c.Stats(); st.BytesLive > budget {
			t.Fatalf("after put %d: %d bytes live > budget %d", i, st.BytesLive, budget)
		}
	}
	// An oversize payload is refused, not stored by wiping the cache.
	if c.Put("huge", pad(budget+1)) {
		t.Fatal("payload larger than the whole budget was cached")
	}
	if st := c.Stats(); st.BytesLive > budget || st.Entries == 0 {
		t.Fatalf("oversize put disturbed residency: %+v", st)
	}
	// Refreshing a key in place adjusts residency, not duplicates.
	c2 := NewCache(budget)
	c2.Put("k", pad(100))
	c2.Put("k", pad(400))
	if st := c2.Stats(); st.BytesLive != 400 || st.Entries != 1 {
		t.Fatalf("in-place refresh: %+v", st)
	}
}

func TestCacheHitRatio(t *testing.T) {
	c := NewCache(1000)
	c.Get("missing")
	c.Put("k", pad(10))
	c.Get("k")
	c.Get("k")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit ratio %v, want 2/3", r)
	}
}

// tinyCacheServer is an origin whose cache holds exactly one segment
// (the budget is measured off a probe encode, not guessed), so walking
// the stream forces eviction and re-requesting forces re-encode.
func tinyCacheServer(t *testing.T) *Server {
	t.Helper()
	shape := ServerConfig{
		W: 96, H: 64, ChunkSeconds: 0.5, Chunks: 3,
		Rates:  []int{200},
		Source: video.NewGenerator(video.Categories()[2], 7),
	}
	probe, err := NewServer(shape)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := probe.segment(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shape.CacheBytes = int64(len(seg)) * 3 / 2
	srv, err := NewServer(shape)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestEvictedSegmentReEncodesIdentically: an evicted chunk re-encodes on
// the next request — from the top of the stream, rebuilding P-frame
// history — and reproduces the original bytes exactly.
func TestEvictedSegmentReEncodesIdentically(t *testing.T) {
	srv := tinyCacheServer(t)
	ctx := context.Background()
	first, err := srv.segment(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc0 := srv.Encodes()
	// Walk the rest of the stream; the tiny budget evicts chunk 0.
	for n := 1; n < 3; n++ {
		if _, err := srv.segment(ctx, 0, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := srv.cache.Get(segKey(0, 0)); ok {
		t.Skip("budget held the whole stream; eviction path not exercised")
	}
	again, err := srv.segment(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Encodes() <= enc0+2 {
		t.Fatalf("no re-encode after eviction: %d encodes", srv.Encodes())
	}
	if !bytes.Equal(first, again) {
		t.Fatal("re-encoded segment differs from the original")
	}
	if st := srv.CacheStats(); st.Evictions == 0 || st.BytesLive > st.Budget {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestReEncodeAfterEvictSingleflight: a miss storm on one evicted chunk
// collapses into a single replay — encodes stay ≤ chunks per residency
// even when every client asks at once.
func TestReEncodeAfterEvictSingleflight(t *testing.T) {
	srv := tinyCacheServer(t)
	ctx := context.Background()
	for n := 0; n < 3; n++ {
		if _, err := srv.segment(ctx, 0, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := srv.cache.Get(segKey(0, 0)); ok {
		t.Skip("budget held the whole stream; eviction path not exercised")
	}
	before := srv.Encodes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.segment(ctx, 0, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// One replay rebuilds chunk 0 only (the rate restarts at 0), so the
	// 8-way storm may cost at most one encode... unless a goroutine
	// arrived after the winner finished and chunk 0 was evicted again —
	// impossible here, the budget fits one segment.
	if d := srv.Encodes() - before; d > 1 {
		t.Fatalf("miss storm on one evicted chunk cost %d encodes, want ≤ 1", d)
	}
}
