package kdapcore

// A materialised space's distributions are kept under its identity.
// The work done over one constrained fact-row set — G(S),
// G(S, attr) per attribute path, and the bucketised numeric series — is
// filled lazily, on first use, into a memo found by the space's key and
// row count (spaceID), not stored with the row list. A row list is
// megabytes and its distributions a few KB, so the two are bounded
// apart: the rows cache by bytes of row ids, the distribution memo by a
// count of spaces. A space whose row list was evicted is rebuilt by a
// semijoin and finds its distributions where it left them.
//
// The identity is exact. Facts are append-only and dimension tables are
// frozen, so the rows under one key only grow: the rows at fact length
// n1 are a prefix of the rows at any n2 > n1, and two row sets under one
// key with the same length are the same set. An append that adds no
// row to a space therefore keeps its distributions, one that adds rows
// gives it a fresh memo, and a reader still holding a pre-append space
// finds only distributions computed over its own rows.
//
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
	"strconv"
	"sync"

	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// space is one materialised fact-row set: its key, its rows, and the
// fact length it was computed (or last extended) against. All three are
// immutable.
type space struct {
	key  string
	rows []int
	upTo int
}

// spaceID is a space's identity, the key of its distributions: its
// constraintsKey and its row count.
type spaceID struct {
	key string
	n   int
}

func (sp *space) id() spaceID { return spaceID{sp.key, len(sp.rows)} }

// distMemo holds one space identity's distributions, a plain memo.
// Completed results stay while the engine keeps the memo; values are
// heterogeneous (aggregates, group-by maps, bucket series) and treated
// as immutable by every consumer — the contract cached answers already
// carry.
type distMemo struct {
	mu sync.Mutex
	m  map[string]any
}

// do returns the value under key, computing it with fn on a miss;
// adopted reports a hit. fn runs outside the lock, so two first
// requests for one key may each compute: they produce identical bytes,
// and the later store replaces the earlier. Only a result without an
// error is stored, so after a cancelled or failed fill the next caller
// computes.
func (dm *distMemo) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (v any, adopted bool, err error) {
	dm.mu.Lock()
	v, ok := dm.m[key]
	dm.mu.Unlock()
	if ok {
		return v, true, nil
	}
	if v, err = fn(ctx); err != nil {
		return nil, false, err
	}
	dm.mu.Lock()
	if dm.m == nil {
		dm.m = make(map[string]any)
	}
	dm.m[key] = v
	dm.mu.Unlock()
	return v, false, nil
}

// distribution is the one lookup site of a space's memo, and the one
// emission site of "adopted, not scanned": the request counts a hit as
// a shared scan and a miss as a fill (the server folds both into
// kdap_cache_{hits,misses}_total{cache="distributions"}).
func distribution[T any](ctx context.Context, e *Engine, sp *space, key string, fill func(context.Context) (T, error)) (T, error) {
	dm, _ := e.dists.GetOrPut(sp.id(), func() *distMemo { return new(distMemo) })
	v, adopted, err := dm.do(ctx, key, func(ctx context.Context) (any, error) { return fill(ctx) })
	f := telemetry.DistFills
	if adopted {
		f = telemetry.SharedScans
	}
	telemetry.Count(ctx, f, 1)
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
