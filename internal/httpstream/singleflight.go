package httpstream

import (
	"context"
	"fmt"
	"sync"
)

// flightGroup is a minimal singleflight: concurrent DoCtx calls with the
// same key share one execution of fn and all receive its result. Distinct
// keys run fully in parallel. (The x/sync/singleflight shape,
// reimplemented because the module is dependency-free.)
//
// Two hard-won properties of the serving path live here:
//
//   - A panicking fn must not wedge the key. Cleanup (removing the key
//     from the map and closing done) runs in a defer, and the panic is
//     converted into an error delivered to the winner and every waiter —
//     the next request for the key starts fresh.
//   - Waiting is context-aware. The winner always runs fn to completion
//     (its result populates the cache for everyone else), but a waiter
//     whose request context ends returns ctx.Err() immediately instead of
//     blocking on a computation its client will never see.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// Flight exposes the singleflight to sibling packages — the cluster
// node's peer-fetch path collapses miss storms with the same (panic-safe,
// context-aware) implementation the origin uses. The zero value is ready.
type Flight = flightGroup

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// DoCtx runs fn once per concurrent set of callers with the same key. The
// computation itself is never cancelled — the winner finishes and its
// result is delivered to every still-waiting caller — but a waiter
// returns ctx.Err() as soon as its context ends.
func (g *flightGroup) DoCtx(ctx context.Context, key string, fn func() ([]byte, error)) (val []byte, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			// A panicking builder must not take the waiters down with it
			// (they are unrelated HTTP requests): surface it as an error.
			c.val, c.err = nil, fmt.Errorf("httpstream: singleflight %q: builder panic: %v", key, r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		val, err = c.val, c.err
	}()
	c.val, c.err = fn()
	return c.val, c.err
}
