package httpstream

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"
)

// TestServeHTTPCountsClientCancels: a request whose client disconnects
// while another request is building the same payload stops waiting
// immediately and is tallied as a 499-style cancel — no response write,
// no server error.
func TestServeHTTPCountsClientCancels(t *testing.T) {
	srv, _ := testServer(t)
	enter := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = srv.flight.DoCtx(context.Background(), segKey(0, 0), func() ([]byte, error) {
			close(enter)
			<-release
			return []byte{0, 0, 0, 0}, nil
		})
	}()
	<-enter // the key is owned; the next request becomes a waiter

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("GET", "/segment?rate=0&n=0", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(rec, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request blocked behind the in-flight build")
	}
	close(release)
	if got := srv.ClientCancels(); got != 1 {
		t.Fatalf("ClientCancels=%d want 1", got)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("abandoned request wrote %d bytes", rec.Body.Len())
	}
}

// TestClientFailsOverToSurvivor: with a failover ring, a dead primary
// rotates the client to the next base mid-retry instead of exhausting
// the budget against the corpse — the cluster node-kill survival story
// at the single-client level.
func TestClientFailsOverToSurvivor(t *testing.T) {
	_, ts1 := testServer(t)
	_, ts2 := testServer(t)
	cli, err := NewFetchClient(ts1.URL, nil, WithFailover(ts2.URL), WithRetryPolicy(fastRetry(3)))
	if err != nil {
		t.Fatal(err)
	}
	cli.sleep = func(time.Duration) {}
	if res, err := cli.FetchChunk(0, 0); err != nil || res.Degraded {
		t.Fatalf("healthy fetch: %v %+v", err, res)
	}
	ts1.Close() // kill the primary mid-stream
	res, err := cli.FetchChunk(1, 0)
	if err != nil {
		t.Fatalf("fetch after primary death: %v", err)
	}
	if res.Degraded || res.Bytes == 0 {
		t.Fatalf("survivor did not serve: %+v", res)
	}
	if cli.Failovers() == 0 {
		t.Fatal("no failover recorded despite a dead primary")
	}
	// Rotation is sticky: subsequent chunks go straight to the survivor.
	before := cli.Retries()
	if _, err := cli.FetchChunk(2, 0); err != nil {
		t.Fatal(err)
	}
	if cli.Retries() != before {
		t.Fatalf("sticky failover still retrying the dead base: %d new retries", cli.Retries()-before)
	}
}
