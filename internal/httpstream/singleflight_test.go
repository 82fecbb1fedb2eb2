package httpstream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightPanicDoesNotWedgeKey is the regression test for the panic
// leak: a panicking builder used to leave its key in the map with done
// never closed, so every later request for that segment hung forever.
// Now the panic becomes an error and the key is released.
func TestFlightPanicDoesNotWedgeKey(t *testing.T) {
	var g flightGroup
	_, err := g.DoCtx(context.Background(), "k", func() ([]byte, error) { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	// The key must be free again: a healthy builder runs and succeeds.
	done := make(chan struct{})
	go func() {
		defer close(done)
		b, err := g.DoCtx(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil || string(b) != "ok" {
			t.Errorf("post-panic Do: %q, %v", b, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after builder panic")
	}
}

// TestFlightPanicReachesWaiters: concurrent waiters on a panicking
// builder all get the error (not a hang, not a zero-value success).
func TestFlightPanicReachesWaiters(t *testing.T) {
	var g flightGroup
	enter := make(chan struct{})
	release := make(chan struct{})
	go func() {
		g.DoCtx(context.Background(), "k", func() ([]byte, error) { //nolint:errcheck // error checked via waiters
			close(enter)
			<-release
			panic("late boom")
		})
	}()
	<-enter
	const waiters = 4
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.DoCtx(context.Background(), "k", func() ([]byte, error) { return nil, nil })
			errs <- err
		}()
	}
	// Give the waiters a moment to join the in-flight call, then let the
	// builder panic.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		n++
		if err == nil || !strings.Contains(err.Error(), "late boom") {
			t.Fatalf("waiter got %v, want the builder panic", err)
		}
	}
	if n != waiters {
		t.Fatalf("%d waiter results, want %d", n, waiters)
	}
}

// TestFlightWaiterCancellation: a waiter whose context ends returns
// immediately with ctx.Err() while the winner finishes and gets the real
// result — the disconnected-client path on the server.
func TestFlightWaiterCancellation(t *testing.T) {
	var g flightGroup
	enter := make(chan struct{})
	release := make(chan struct{})
	winner := make(chan error, 1)
	go func() {
		b, err := g.DoCtx(context.Background(), "k", func() ([]byte, error) {
			close(enter)
			<-release
			return []byte("slow"), nil
		})
		if err == nil && string(b) != "slow" {
			err = fmt.Errorf("winner got %q", b)
		}
		winner <- err
	}()
	<-enter
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := g.DoCtx(ctx, "k", func() ([]byte, error) { return nil, nil })
		waitErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on done
	cancel()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked")
	}
	close(release)
	if err := <-winner; err != nil {
		t.Fatalf("winner: %v", err)
	}
}

// TestFlightCollapsesConcurrentCalls: the basic singleflight contract —
// N concurrent callers, one execution, shared result.
func TestFlightCollapsesConcurrentCalls(t *testing.T) {
	var g flightGroup
	var calls int
	var mu sync.Mutex
	enter := make(chan struct{})
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	results := make(chan string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				b, _ := g.DoCtx(context.Background(), "k", func() ([]byte, error) {
					mu.Lock()
					calls++
					mu.Unlock()
					close(enter)
					<-release
					return []byte("v"), nil
				})
				results <- string(b)
				return
			}
			<-enter
			b, _ := g.DoCtx(context.Background(), "k", func() ([]byte, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return []byte("v"), nil
			})
			results <- string(b)
		}(i)
	}
	<-enter
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	close(results)
	if calls != 1 {
		t.Fatalf("%d executions for one concurrent key, want 1", calls)
	}
	for r := range results {
		if r != "v" {
			t.Fatalf("caller got %q", r)
		}
	}
}
