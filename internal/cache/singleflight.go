package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// flight is one in-progress computation and, once done is closed, its
// result. Waiters hold a pointer to it across the map delete, so a
// finished flight stays readable after the group forgets the key.
type flight[V any] struct {
	done    chan struct{}
	waiters atomic.Int32
	v       V
	err     error
}

// ErrLeaderPanicked is what waiters receive when the computation they
// were waiting on panicked: the panic itself belongs to the leader's
// goroutine, so the waiters get an ordinary error and the key is free
// for the next caller.
var ErrLeaderPanicked = errors.New("cache: in-flight computation panicked")

// Group collapses concurrent calls with the same key into one
// computation (the classic "singleflight" pattern, generic over key and
// value). The zero value is ready to use; a Group must not be copied
// after first use. Safe for concurrent use.
type Group[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flight[V]
	shared   atomic.Int64
}

// Shared returns the lifetime count of calls that adopted another
// caller's result instead of computing their own.
func (g *Group[K, V]) Shared() int64 { return g.shared.Load() }

// Waiting returns how many callers are currently blocked on the key's
// in-flight computation (0 when none is running). Introspection for
// tests and debugging.
func (g *Group[K, V]) Waiting(key K) int {
	g.mu.Lock()
	f := g.inflight[key]
	g.mu.Unlock()
	if f == nil {
		return 0
	}
	return int(f.waiters.Load())
}

// Do executes fn under key, collapsing concurrent duplicates: while one
// caller (the leader) runs fn, every other caller with the same key
// waits and shares the leader's result instead of computing. shared
// reports whether the returned value came from another caller's
// computation.
//
// Two rules shape the waiting side:
//
//   - A waiter whose own context ends stops waiting and returns its
//     context error; the leader keeps computing for the rest.
//   - A cancelled computation is never shared. When the leader returns a
//     context error — its client hung up or its deadline fired — waiters
//     do not inherit that error: each retries, and one becomes the new
//     leader under its own (live) context. The leader itself does get
//     its context error back.
//
// A panic in fn propagates to the leader's caller, but first the key is
// released and waiters are woken with ErrLeaderPanicked — a panicking
// leader must not leave the key in flight forever.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			var zero V
			return zero, false, err
		}
		g.mu.Lock()
		if g.inflight == nil {
			g.inflight = make(map[K]*flight[V])
		}
		if f, ok := g.inflight[key]; ok {
			f.waiters.Add(1)
			g.mu.Unlock()
			select {
			case <-ctx.Done():
				f.waiters.Add(-1)
				var zero V
				return zero, false, ctx.Err()
			case <-f.done:
			}
			f.waiters.Add(-1)
			if f.err != nil && isContextErr(f.err) {
				continue // never share a cancelled result; retry, maybe as leader
			}
			g.shared.Add(1)
			return f.v, true, f.err
		}
		f := &flight[V]{done: make(chan struct{})}
		g.inflight[key] = f
		g.mu.Unlock()
		func() {
			f.err = ErrLeaderPanicked // overwritten unless fn panics
			defer func() {
				g.mu.Lock()
				delete(g.inflight, key)
				g.mu.Unlock()
				close(f.done)
			}()
			f.v, f.err = fn(ctx)
		}()
		return f.v, false, f.err
	}
}

// isContextErr reports whether err is a context cancellation or an
// expired deadline — the results singleflight refuses to share and the
// answer store refuses to keep.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
