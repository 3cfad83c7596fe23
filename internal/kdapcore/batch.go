package kdapcore

// Shared-scan batched execution. Concurrent explore requests against one
// engine overwhelmingly repeat each other's OLAP work: popular queries
// arrive in duplicate, and distinct interpretations still share roll-up
// background spaces (every single-hit net's "all" roll-up is the same
// full-table scan). The batcher exploits both. A request that reaches
// the execution layer waits a small gather window for company; when the
// batch is released, its members run concurrently over one shared scan
// scope — a per-batch memo in which each distinct roll-up row set,
// group-by scan, numeric series, and aggregate is computed exactly once
// (by the first member to need it) and shared by the rest. Identical
// whole requests collapse further: one member computes the facets, the
// others adopt the result.
//
// Determinism is inherited, not argued per call site: every memoized
// value is produced by the same solo code path with the same inputs a
// lone request would use, and the kernels underneath are byte-stable by
// the stripe-grid contract (see internal/olap). Sharing replaces a
// recomputation with the identical bytes it would have produced, so a
// batched explore's Facets.Fingerprint always equals the solo one.
//
// Cancellation follows cache.Group's rules: a cancelled member's
// in-progress computations are never shared (waiters retry and one
// becomes the new leader), and a member whose own context ends while
// gathering leaves the batch with its context error.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"kdap/internal/cache"
	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// DefaultBatchMax is the batch-size cap used when SetBatching is given a
// non-positive max.
const DefaultBatchMax = 16

// scanScope is the shared computation memo of one batch. Unlike a
// singleflight, completed results stay resident for the batch's
// lifetime: members do not run in lockstep, so a scan one member
// finished a millisecond ago must still be sharable by the next. Values
// are heterogeneous (row sets, group-by maps, series, aggregates) and
// treated as immutable by every consumer — the same contract cached
// answers already carry. The scope dies with its batch, bounding the
// memo's footprint to one gather's worth of distinct scans.
type scanScope struct {
	mu     sync.Mutex
	m      map[string]*scopeEntry
	shared *atomic.Int64 // engine-wide shared-scan counter

	// Batch identity for attribution: batchID is assigned when the batch
	// opens; size is its final member count, written before the batch's
	// released channel closes (so members read it race-free after join).
	batchID uint64
	size    int
}

// scopeEntry is one scan's slot: done closes when the computation
// finishes, after which v/err are immutable.
type scopeEntry struct {
	done chan struct{}
	v    any
	err  error
}

// do runs fn under key once per scope, sharing the result with every
// other member that asks for the same key — whether it asks while the
// computation is in flight (it waits) or after (it reads the memo).
// cache.Group's cancellation rule carries over: a leader's context
// error is never shared; the entry is vacated and a later caller
// recomputes under its own (live) context. So does its panic rule: a
// panicking leader vacates the entry and wakes waiters with
// cache.ErrLeaderPanicked before the panic propagates.
func (sc *scanScope) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.mu.Lock()
		if sc.m == nil {
			sc.m = make(map[string]*scopeEntry)
		}
		if e, ok := sc.m[key]; ok {
			sc.mu.Unlock()
			// The wait-and-adopt is a real pipeline stage: record it as a
			// batch_shared span so a follower's trace shows where its answer
			// came from instead of an empty tree. The name is constant — the
			// batch ID lives in the wide event, not in a span name, so the
			// kdap_stage_seconds label set stays bounded.
			_, wsp := telemetry.StartSpan(ctx, "batch_shared")
			select {
			case <-e.done:
			case <-ctx.Done():
				wsp.End()
				return nil, ctx.Err()
			}
			wsp.End()
			if e.err != nil && isContextErr(e.err) {
				continue // vacated by the leader; retry, maybe as leader
			}
			sc.shared.Add(1)
			profile.FromContext(ctx).AddSharedScan()
			return e.v, e.err
		}
		e := &scopeEntry{done: make(chan struct{})}
		sc.m[key] = e
		sc.mu.Unlock()
		func() {
			e.err = cache.ErrLeaderPanicked // overwritten unless fn panics
			defer func() {
				if isContextErr(e.err) || errors.Is(e.err, cache.ErrLeaderPanicked) {
					sc.mu.Lock()
					delete(sc.m, key)
					sc.mu.Unlock()
				}
				close(e.done)
			}()
			e.v, e.err = fn(ctx)
		}()
		return e.v, e.err
	}
}

// isContextErr mirrors cache.isContextErr for the scope's sharing rule.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scopeKey carries the batch's scan scope through the explore pipeline.
type scopeKey struct{}

// withScanScope attaches a batch's scan scope to the context.
func withScanScope(ctx context.Context, sc *scanScope) context.Context {
	return context.WithValue(ctx, scopeKey{}, sc)
}

// scanScopeOf returns the batch scan scope, or nil outside a batch.
func scanScopeOf(ctx context.Context) *scanScope {
	sc, _ := ctx.Value(scopeKey{}).(*scanScope)
	return sc
}

// scanBatch is one gather in progress: members join until the window
// timer fires or the batch is full, then released closes and everyone
// runs over the shared scope.
type scanBatch struct {
	released chan struct{}
	scope    *scanScope
	n        int
	timer    *time.Timer
	once     sync.Once
}

// batcher gathers concurrent requests into scanBatches.
type batcher struct {
	window time.Duration
	max    int

	mu  sync.Mutex
	cur *scanBatch

	seq      atomic.Uint64
	batches  atomic.Int64
	requests atomic.Int64
	sizeHist *telemetry.Histogram
	shared   *atomic.Int64
}

// release closes the batch exactly once (window expiry and the size cap
// can race) and records its final size.
func (b *batcher) release(bt *scanBatch) {
	b.mu.Lock()
	if b.cur == bt {
		b.cur = nil
	}
	n := bt.n
	b.mu.Unlock()
	bt.once.Do(func() {
		bt.timer.Stop()
		b.batches.Add(1)
		b.sizeHist.Observe(float64(n))
		bt.scope.size = n // before close: members read it after <-released
		close(bt.released)
	})
}

// join enters the current batch (opening one if none is gathering) and
// blocks until it is released or ctx ends. The returned scope is shared
// with every other member of the same batch.
func (b *batcher) join(ctx context.Context) (*scanScope, error) {
	b.mu.Lock()
	bt := b.cur
	if bt == nil {
		bt = &scanBatch{
			released: make(chan struct{}),
			scope:    &scanScope{shared: b.shared, batchID: b.seq.Add(1)},
		}
		bt.timer = time.AfterFunc(b.window, func() { b.release(bt) })
		b.cur = bt
	}
	bt.n++
	full := bt.n >= b.max
	b.mu.Unlock()
	b.requests.Add(1)
	if full {
		b.release(bt)
	}
	select {
	case <-bt.released:
		return bt.scope, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BatchStats snapshots the engine's batched-execution counters.
type BatchStats struct {
	// Batches is how many gather windows have been released.
	Batches int64
	// Requests is how many requests entered a batch.
	Requests int64
	// SharedScans counts scan-scope computations served from another
	// member's work instead of recomputed.
	SharedScans int64
	// SharedExplores counts whole explore requests that adopted an
	// identical in-flight member's facets.
	SharedExplores int64
	// SharedDifferentiates likewise for differentiate requests.
	SharedDifferentiates int64
}

// SetBatching enables shared-scan batched execution: an explore that
// reaches the execution layer waits up to window for concurrent company
// and runs over a batch-shared scan scope (see ExploreBatchedCtx).
// window <= 0 disables batching; max <= 0 means DefaultBatchMax.
// Configure at startup — not safe to call concurrently with queries.
func (e *Engine) SetBatching(window time.Duration, max int) {
	if window <= 0 {
		e.batch.Store(nil)
		return
	}
	if max <= 0 {
		max = DefaultBatchMax
	}
	e.batch.Store(&batcher{
		window:   window,
		max:      max,
		sizeHist: e.batchSizeHist,
		shared:   &e.scanShared,
	})
}

// BatchingEnabled reports whether SetBatching has been configured.
func (e *Engine) BatchingEnabled() bool { return e.batch.Load() != nil }

// BatchSizeHistogram exposes the released-batch-size histogram for
// metrics wiring (buckets are request counts, not seconds).
func (e *Engine) BatchSizeHistogram() *telemetry.Histogram { return e.batchSizeHist }

// BatchStats snapshots the batched-execution counters.
func (e *Engine) BatchStats() BatchStats {
	st := BatchStats{
		SharedScans:          e.scanShared.Load(),
		SharedExplores:       e.explShared.Load(),
		SharedDifferentiates: e.diffShared.Load(),
	}
	if b := e.batch.Load(); b != nil {
		st.Batches = b.batches.Load()
		st.Requests = b.requests.Load()
	}
	return st
}

// ExploreBatchedCtx is ExploreCtx through the batch scheduler: with
// batching enabled the call gathers with its concurrent neighbors, then
// executes over the batch's shared scan scope; identical in-flight
// explores collapse to one computation. With batching disabled it is
// exactly ExploreCachedCtx. Results are byte-identical to solo
// execution either way.
func (e *Engine) ExploreBatchedCtx(ctx context.Context, sn *StarNet, opts ExploreOptions) (*Facets, CacheOutcome, error) {
	b := e.batch.Load()
	if b == nil {
		return e.ExploreCachedCtx(ctx, sn, opts)
	}
	// Answer-cache hits skip the gather entirely: there is nothing to
	// batch when the finished answer is already resident.
	key, cacheable := ExploreCacheKey(sn, opts)
	if e.explAnswers != nil && cacheable {
		if f, ok := e.explAnswers.Get(key); ok {
			return rebindFacets(f, sn), CacheHit, nil
		}
	}
	_, gsp := telemetry.StartSpan(ctx, "batch_gather")
	scope, err := b.join(ctx)
	gsp.End()
	if err != nil {
		return nil, CacheBypass, err
	}
	ctx = withScanScope(ctx, scope)
	profile.FromContext(ctx).SetBatch(scope.batchID, scope.size)
	if !cacheable {
		f, err := e.exploreUncached(ctx, sn, opts)
		return f, CacheBypass, err
	}
	if e.explAnswers != nil {
		// The answer cache's own singleflight already collapses identical
		// members; the scope still shares partial work across distinct ones.
		t0 := time.Now()
		f, oc, err := e.ExploreCachedCtx(ctx, sn, opts)
		if oc == CacheCoalesced {
			noteSharedAnswer(ctx, time.Since(t0))
		}
		return f, oc, err
	}
	t0 := time.Now()
	f, shared, err := e.explFlight.Do(ctx, key, func(ctx context.Context) (*Facets, error) {
		return e.exploreUncached(ctx, sn, opts)
	})
	if err != nil {
		return nil, CacheBypass, err
	}
	if shared {
		e.explShared.Add(1)
		noteSharedAnswer(ctx, time.Since(t0))
		return rebindFacets(f, sn), CacheCoalesced, nil
	}
	return f, CacheBypass, nil
}

// noteSharedAnswer marks a follower request: its whole answer was
// adopted from a batch peer's in-flight computation. Before this, such
// requests returned an empty span tree under ?trace=1 — the work
// happened, just in a peer's goroutine — so the wait-and-adopt is
// recorded as a batch_shared stage and the wide event flips to the
// follower role.
func noteSharedAnswer(ctx context.Context, d time.Duration) {
	telemetry.SpanFromContext(ctx).AddTimed("batch_shared", d)
	profile.FromContext(ctx).MarkSharedAnswer()
}

// DifferentiateBatchedCtx is the differentiate counterpart. The phase
// runs no fact-table scans, so it never waits for a gather window — the
// only batching win is collapsing identical concurrent queries, which
// singleflight provides without adding latency.
func (e *Engine) DifferentiateBatchedCtx(ctx context.Context, query string) ([]*StarNet, CacheOutcome, error) {
	if e.batch.Load() == nil {
		return e.DifferentiateCachedCtx(ctx, query)
	}
	if e.diffAnswers != nil {
		// With an answer cache, differentiateCached already coalesces;
		// mark followers the same way the explore path does.
		t0 := time.Now()
		nets, oc, err := e.DifferentiateCachedCtx(ctx, query)
		if oc == CacheCoalesced {
			noteSharedAnswer(ctx, time.Since(t0))
		}
		return nets, oc, err
	}
	key := diffAnswerKey(query, Standard)
	t0 := time.Now()
	nets, shared, err := e.diffFlight.Do(ctx, key, func(ctx context.Context) ([]*StarNet, error) {
		return e.differentiateRanked(ctx, query, Standard)
	})
	if err != nil {
		return nil, CacheBypass, err
	}
	if shared {
		e.diffShared.Add(1)
		noteSharedAnswer(ctx, time.Since(t0))
		return nets, CacheCoalesced, nil
	}
	return nets, CacheBypass, nil
}
