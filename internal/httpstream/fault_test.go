package httpstream

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"nerve/internal/core"
	"nerve/internal/faultnet"
	"nerve/internal/metrics"
	"nerve/internal/video"
)

// fastRetry is a test policy: full retry behaviour, negligible wall time.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    attempts,
		BaseBackoff:    time.Microsecond,
		MaxBackoff:     10 * time.Microsecond,
		RequestTimeout: 10 * time.Second,
		Seed:           99,
	}
}

// matchSegment selects /segment requests for chunk n (any rate), leaving
// /codes untouched.
func matchSegment(n string) func(*http.Request) bool {
	return func(r *http.Request) bool {
		return r.URL.Path == "/segment" && r.URL.Query().Get("n") == n
	}
}

func faultClient(t *testing.T, url string, attempts int, rules ...*faultnet.Rule) (*Client, *faultnet.Transport) {
	t.Helper()
	tr := faultnet.New(nil, faultnet.Config{Seed: 1}, rules...)
	cli, err := NewClient(url, &http.Client{Transport: tr}, true, WithRetryPolicy(fastRetry(attempts)))
	if err != nil {
		t.Fatal(err)
	}
	cli.sleep = func(time.Duration) {} // keep the test instant
	return cli, tr
}

// playAll plays every chunk of the manifest in order at the lowest rung.
func playAll(cli *Client) ([]*ChunkResult, error) {
	var out []*ChunkResult
	for n := 0; n < cli.Manifest().Chunks; n++ {
		res, err := cli.PlayChunk(n, 0, false)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

func TestFetchRetriesTransient5xx(t *testing.T) {
	_, ts := testServer(t)
	cli, tr := faultClient(t, ts.URL, 4, &faultnet.Rule{
		Match: matchSegment("0"), Count: 2, Status: 503,
	})
	res, err := cli.PlayChunk(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("degraded despite retry budget: %s", res.DegradedReason)
	}
	if res.Bytes == 0 {
		t.Fatal("no media bytes after successful retry")
	}
	if got := cli.Retries(); got != 2 {
		t.Fatalf("Retries=%d want 2", got)
	}
	if tr.ServerErrors.Load() != 2 {
		t.Fatalf("injected %d 5xx, want 2", tr.ServerErrors.Load())
	}
}

func TestFetchRetriesTruncatedBody(t *testing.T) {
	_, ts := testServer(t)
	cli, _ := faultClient(t, ts.URL, 3, &faultnet.Rule{
		Match: matchSegment("0"), Count: 1, TruncateBytes: 10,
	})
	res, err := cli.PlayChunk(0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("degraded despite retry budget: %s", res.DegradedReason)
	}
	if cli.Retries() == 0 {
		t.Fatal("truncated body not retried")
	}
}

// TestFetchBogusContentLength: a response that announces far more bytes
// than it sends fails as a transient error. The client sizes its read
// buffer from Content-Length only up to maxPresizeBytes, so a bogus
// header, huge or just under the bound, costs at most the bound per
// attempt.
func TestFetchBogusContentLength(t *testing.T) {
	for _, announced := range []int64{maxPresizeBytes - 1, 1 << 40} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.FormatInt(announced, 10))
			_, _ = w.Write([]byte("abc"))
		}))
		cli := NewRawClient(ts.URL, nil, WithRetryPolicy(fastRetry(2)))
		cli.sleep = func(time.Duration) {}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cli.Fetch("/segment?rate=0&n=0")
		runtime.ReadMemStats(&after)
		ts.Close()
		var fe *FetchError
		if !errors.As(err, &fe) || !fe.Transient || fe.Attempts != 2 {
			t.Fatalf("Content-Length %d, 3 bytes sent: %v, want a transient FetchError after 2 attempts", announced, err)
		}
		if got, max := after.TotalAlloc-before.TotalAlloc, uint64(2*maxPresizeBytes+1<<20); got > max {
			t.Fatalf("Content-Length %d: two attempts allocated %d bytes, want at most %d", announced, got, max)
		}
	}
}

func TestPermanentErrorNotDegraded(t *testing.T) {
	_, ts := testServer(t)
	cli, _ := faultClient(t, ts.URL, 3)
	_, err := cli.PlayChunk(0, 99, false) // rate 99 does not exist
	if err == nil {
		t.Fatal("nonexistent rate masked by degradation")
	}
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T, want *FetchError", err)
	}
	if fe.Transient || fe.Status != http.StatusNotFound || fe.Attempts != 1 {
		t.Fatalf("permanent 404 misclassified: %+v", fe)
	}
	if cli.Retries() != 0 {
		t.Fatalf("4xx retried %d times", cli.Retries())
	}
}

func TestDegradeToCodesOnlyRecovery(t *testing.T) {
	srv, ts := testServer(t)
	// Chunk 1's media path is down for good — every retry is reset.
	cli, _ := faultClient(t, ts.URL, 3, &faultnet.Rule{
		Match: matchSegment("1"), Reset: true,
	})
	results, err := playAll(cli)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("played %d chunks, want all 3", len(results))
	}
	fpc := srv.framesPerChunk()
	gen := video.NewGenerator(video.Categories()[2], 7)
	var s metrics.Series
	for n, res := range results {
		if len(res.Frames) != fpc {
			t.Fatalf("chunk %d: %d frames want %d", n, len(res.Frames), fpc)
		}
		if n != 1 {
			if res.Degraded {
				t.Fatalf("healthy chunk %d marked degraded: %s", n, res.DegradedReason)
			}
			continue
		}
		if !res.Degraded || res.DegradedReason == "" {
			t.Fatalf("chunk 1 not marked degraded: %+v", res)
		}
		if res.Bytes != 0 {
			t.Fatalf("degraded chunk reports %d media bytes", res.Bytes)
		}
		for i, cl := range res.Classes {
			if cl != core.ClassRecovered {
				t.Errorf("degraded chunk frame %d class %v, want recovered", i, cl)
			}
		}
		for i, f := range res.Frames {
			s.ObserveFrames(gen.Render(n*fpc+i, 96, 64), f)
		}
	}
	if cli.DegradedChunks() != 1 {
		t.Fatalf("DegradedChunks=%d want 1", cli.DegradedChunks())
	}
	if p := s.MeanPSNR(); p < 15 {
		t.Fatalf("codes-only recovered chunk unusable: %.2f dB", p)
	}
}

// TestConcurrentClientsSurviveFaults is the acceptance scenario: N
// concurrent clients, one chunk's segment fetches failing through every
// retry, and the whole run must stay race-clean with every client getting
// all chunks (the failed one codes-only) and the server never duplicating
// encode work.
func TestConcurrentClientsSurviveFaults(t *testing.T) {
	srv, ts := testServer(t)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := faultnet.New(nil, faultnet.Config{Seed: int64(i)}, &faultnet.Rule{
				Match: matchSegment("1"), Reset: true,
			})
			cli, err := NewClient(ts.URL, &http.Client{Transport: tr}, true, WithRetryPolicy(fastRetry(3)))
			if err != nil {
				errs <- err
				return
			}
			cli.sleep = func(time.Duration) {}
			results, err := playAll(cli)
			if err != nil {
				errs <- err
				return
			}
			if len(results) != srv.Manifest().Chunks {
				errs <- fmt.Errorf("client %d: %d chunks want %d", i, len(results), srv.Manifest().Chunks)
				return
			}
			for n, res := range results {
				if want := srv.framesPerChunk(); len(res.Frames) != want {
					errs <- fmt.Errorf("client %d chunk %d: %d frames want %d", i, n, len(res.Frames), want)
					return
				}
				if (n == 1) != res.Degraded {
					errs <- fmt.Errorf("client %d chunk %d: degraded=%v", i, n, res.Degraded)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The singleflight cache must have collapsed all concurrent encode
	// work: at most one encode per (rate, chunk) across every client.
	m := srv.Manifest()
	if max := int64(len(m.RatesKbps) * m.Chunks); srv.Encodes() > max {
		t.Fatalf("server performed %d encodes for %d (rate,chunk) pairs — duplicated work", srv.Encodes(), max)
	}
}

// TestConcurrentColdCacheNoDuplicates hammers a cold server with identical
// and distinct requests at once; the flight cache must hold encodes to one
// per (rate, chunk).
func TestConcurrentColdCacheNoDuplicates(t *testing.T) {
	srv, ts := testServer(t)
	m := srv.Manifest()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < m.Chunks; n++ {
				for rate := range m.RatesKbps {
					resp, err := http.Get(fmt.Sprintf("%s/segment?rate=%d&n=%d", ts.URL, rate, n))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("segment rate=%d n=%d: %s", rate, n, resp.Status)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if max := int64(len(m.RatesKbps) * m.Chunks); srv.Encodes() > max {
		t.Fatalf("%d encodes for %d (rate,chunk) pairs — duplicated work", srv.Encodes(), max)
	}
}
