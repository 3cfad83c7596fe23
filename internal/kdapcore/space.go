package kdapcore

// A materialised space carries its distributions. The unit the subspace
// cache keeps resident — one constrained-and-filtered fact-row set — is
// also the unit that owns the work done over it: G(S), G(S, attr) per
// attribute path, and the bucketised numeric series are filled lazily,
// exactly once each, and stay with the row list until it is evicted.
// The memo is role-agnostic. A net's own DS' and the roll-up spaces of
// other nets live under the one key constraintsKey gives them, so what
// one explore computed as its local distribution is what a drilled
// explore looks up as its background, and sibling nets meet at their
// shared roll-ups ("all" is query-independent) across requests.
//
// Determinism is inherited, not argued per call site: every memoised
// value is produced by the same solo kernel call with the same inputs a
// lone request would make, and the kernels are byte-stable by the
// stripe-grid contract (see internal/olap). A lookup replaces a
// recomputation with the identical bytes it would have produced.

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"kdap/internal/cache"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// space is one materialised fact-row set plus the fact length it was
// computed (or last extended) against, and the distributions computed
// over it. rows and upTo are immutable; dist is shared by pointer with
// the space that replaces this one when an append adds no row to it.
type space struct {
	rows []int
	upTo int
	dist *distMemo
}

func newSpace(rows []int, upTo int) *space {
	return &space{rows: rows, upTo: upTo, dist: new(distMemo)}
}

// distMemo holds a space's distributions. Completed results stay for
// the space's lifetime; values are heterogeneous (aggregates, group-by
// maps, bucket series) and treated as immutable by every consumer — the
// contract cached answers already carry.
type distMemo struct {
	mu sync.Mutex
	m  map[string]*distEntry
}

// distEntry is one distribution's slot: done closes when the
// computation finishes, after which v/err are immutable.
type distEntry struct {
	done chan struct{}
	v    any
	err  error
}

// do runs fn under key once per memo, sharing the result with every
// other caller that asks for the same key — whether it asks while the
// computation is in flight (it waits, bound to its own ctx) or after
// (it reads the memo); adopted reports which. cache.Group's
// cancellation rule carries over: a leader's context error is never
// shared; the entry is vacated and a later caller recomputes under its
// own (live) context. So does its panic rule: a panicking leader
// vacates the entry and wakes waiters with cache.ErrLeaderPanicked
// before the panic propagates.
func (dm *distMemo) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (v any, adopted bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		dm.mu.Lock()
		if dm.m == nil {
			dm.m = make(map[string]*distEntry)
		}
		if e, ok := dm.m[key]; ok {
			dm.mu.Unlock()
			select {
			case <-e.done:
			default:
				// Waiting on another request's scan is a real pipeline
				// stage. The name is constant so the kdap_stage_seconds
				// label set stays bounded.
				_, wsp := telemetry.StartSpan(ctx, "distribution_wait")
				select {
				case <-e.done:
					wsp.End()
				case <-ctx.Done():
					wsp.End()
					return nil, false, ctx.Err()
				}
			}
			if e.err != nil && isContextErr(e.err) {
				continue // vacated by the leader; retry, maybe as leader
			}
			return e.v, true, e.err
		}
		e := &distEntry{done: make(chan struct{})}
		dm.m[key] = e
		dm.mu.Unlock()
		func() {
			e.err = cache.ErrLeaderPanicked // overwritten unless fn panics
			defer func() {
				if isContextErr(e.err) || errors.Is(e.err, cache.ErrLeaderPanicked) {
					dm.mu.Lock()
					delete(dm.m, key)
					dm.mu.Unlock()
				}
				close(e.done)
			}()
			e.v, e.err = fn(ctx)
		}()
		return e.v, false, e.err
	}
}

// isContextErr mirrors cache.isContextErr for the memo's sharing rule.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// distribution is the one lookup site of a space's memo, and the one
// emission site of "adopted, not scanned": a hit is counted on the
// engine (DistributionStats, kdap_cache_hits_total{cache=
// "distributions"}) and on the request's wide event.
func distribution[T any](ctx context.Context, e *Engine, sp *space, key string, fill func(context.Context) (T, error)) (T, error) {
	v, adopted, err := sp.dist.do(ctx, key, func(ctx context.Context) (any, error) { return fill(ctx) })
	if adopted {
		e.scanShared.Add(1)
		profile.FromContext(ctx).AddSharedScan()
	} else {
		e.distFills.Add(1)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// spaceAggregate returns G(S).
func (e *Engine) spaceAggregate(ctx context.Context, sp *space) (float64, error) {
	return distribution(ctx, e, sp, "agg", func(ctx context.Context) (float64, error) {
		return e.exec.AggregateCtx(ctx, sp.rows, e.measure, e.agg)
	})
}

// spaceGroupBy returns G(S, attr) for the attribute at the far end of
// path.
func (e *Engine) spaceGroupBy(ctx context.Context, sp *space, attr string, path schemagraph.JoinPath) (map[relation.Value]float64, error) {
	key := "gb\x1f" + path.Signature() + "\x1f" + attr
	return distribution(ctx, e, sp, key, func(ctx context.Context) (map[relation.Value]float64, error) {
		return e.exec.GroupByCtx(ctx, sp.rows, attr, path, e.measure, e.agg)
	})
}

// spaceSeries returns the space's numeric series over attr bucketised
// into iv — iv.AggregateSeries(NumericSeriesCtx(S, attr)). Equal-width
// intervals are a function of their two outer edges and their count, so
// those identify the entry; what is kept is the bucket series (40
// floats by default), and the raw per-row series of a million-row
// roll-up is never even built: the fill folds each stride of the scan
// into the buckets as it streams by, in row order, which is the order
// AggregateSeries would add the materialised series in. vals, when
// non-nil, is the space's raw series the caller has already extracted
// (a net's own DS', whose values shaped iv): the fill buckets it
// instead of scanning a second time.
func (e *Engine) spaceSeries(ctx context.Context, sp *space, attr string, path schemagraph.JoinPath,
	iv Intervals, vals []olap.ValueMeasure) ([]float64, error) {

	n := iv.Buckets()
	key := "ns\x1f" + path.Signature() + "\x1f" + attr +
		"\x1f" + strconv.FormatFloat(iv.Edges[0], 'x', -1, 64) +
		"\x1f" + strconv.FormatFloat(iv.Edges[n], 'x', -1, 64) +
		"\x1f" + strconv.Itoa(n)
	return distribution(ctx, e, sp, key, func(ctx context.Context) ([]float64, error) {
		if vals != nil {
			return iv.AggregateSeries(vals), nil
		}
		series := make([]float64, n)
		err := e.exec.FoldNumericSeriesCtx(ctx, sp.rows, attr, path, e.measure, func(stride []olap.ValueMeasure) {
			iv.Accumulate(series, stride)
		})
		if err != nil {
			return nil, err
		}
		return series, nil
	})
}

// DistributionStats snapshots the space memo's lookup counters in the
// shape the Clock caches report theirs: a hit adopted a distribution
// already computed (or in flight) over the space, a miss scanned.
func (e *Engine) DistributionStats() cache.Stats {
	return cache.Stats{Hits: e.scanShared.Load(), Misses: e.distFills.Load()}
}
