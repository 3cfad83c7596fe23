package kdapcore

// Batched execution. Concurrent explore requests against one engine
// overwhelmingly repeat each other: popular queries arrive in
// duplicate. A request that reaches the execution layer waits a small
// gather window for company; when the batch is released its members run
// concurrently, and identical whole requests collapse: one member
// computes the facets, the others adopt the result. Sharing of partial
// work — roll-up row sets and the distributions over them — is not a
// batch property: spaces carry it across all requests (space.go), so
// members released together simply meet there.
//
// A batched explore's Facets.Fingerprint always equals the solo one:
// an adopted answer is the bytes the solo path produced for an
// identical request.
//
// Cancellation follows cache.Group's rules: a cancelled member's
// in-progress computation is never shared (waiters retry and one
// becomes the new leader), and a member whose own context ends while
// gathering leaves the batch with its context error.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// DefaultBatchMax is the batch-size cap used when SetBatching is given a
// non-positive max.
const DefaultBatchMax = 16

// scanBatch is one gather in progress: members join until the window
// timer fires or the batch is full, then released closes and everyone
// runs.
type scanBatch struct {
	released chan struct{}
	// Batch identity for attribution: id is assigned when the batch
	// opens; size is its final member count, written before released
	// closes (so members read it race-free after join).
	id    uint64
	size  int
	n     int
	timer *time.Timer
	once  sync.Once
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
		bt.size = n // before close: members read it after <-released
		close(bt.released)
	})
}

// join enters the current batch (opening one if none is gathering) and
// blocks until it is released or ctx ends, returning the batch for its
// identity.
func (b *batcher) join(ctx context.Context) (*scanBatch, error) {
	b.mu.Lock()
	bt := b.cur
	if bt == nil {
		bt = &scanBatch{
			released: make(chan struct{}),
			id:       b.seq.Add(1),
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
		return bt, nil
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
	// SharedScans counts distributions adopted from a space's memo
	// instead of scanned — any request's, batched or not.
	SharedScans int64
	// SharedExplores counts whole explore requests that adopted an
	// identical in-flight member's facets.
	SharedExplores int64
	// SharedDifferentiates likewise for differentiate requests.
	SharedDifferentiates int64
}

// SetBatching enables batched execution: an explore that reaches the
// execution layer waits up to window for concurrent company and is
// released together with it (see ExploreBatchedCtx).
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
// executes; identical in-flight explores collapse to one computation.
// With batching disabled it is exactly ExploreCachedCtx. Results are
// byte-identical to solo execution either way.
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
	bt, err := b.join(ctx)
	gsp.End()
	if err != nil {
		return nil, CacheBypass, err
	}
	profile.FromContext(ctx).SetBatch(bt.id, bt.size)
	if !cacheable {
		f, err := e.exploreUncached(ctx, sn, opts)
		return f, CacheBypass, err
	}
	if e.explAnswers != nil {
		// The answer cache's own singleflight already collapses identical
		// members.
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
