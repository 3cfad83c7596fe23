package kdapcore

// The cluster seam: distributed execution replaces exactly one stage of
// the pipeline — fact-row-set materialization (the semijoin / numeric
// filter layer) — and nothing else. A RowScatterer fans the constraint
// set out to worker nodes that each own a contiguous fact-row range and
// returns the gathered rows in ascending row order, which makes the
// result byte-identical to a local scan: membership of each row is
// decided per-row by the same deterministic predicate evaluation, and
// the concatenation of contiguous ranges in shard order is exactly the
// full-scan enumeration order. Every float kernel (aggregate, group-by,
// numeric series) still runs on the coordinator over the gathered rows
// slice, so kernel parenthesization — and therefore every last bit of
// the facet output — is untouched by distribution.
//
// Degradation is typed, not silent: a scatter that loses a node (and
// has no fallback) returns the surviving rows inside a *DegradedError.
// The error path guarantees a degraded row set is never cached as a
// materialized subspace and never shared as a success; only an explore
// that opted in via ExploreOptions.PartialOnDeadline accepts the rows,
// and the failed nodes surface in Facets.DegradedNodes.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"kdap/internal/olap"
)

// RowScatterer materializes a constrained-and-filtered fact-row set by
// scattering per-node shard ranges to workers and gathering the partial
// row sets in shard order. Implementations must return rows ascending
// and exactly equal to what Executor.FactRowsCtx + filter application
// would produce locally; internal/cluster provides the implementation.
type RowScatterer interface {
	ScatterRows(ctx context.Context, cs []olap.Constraint, filters []NumericFilter) ([]int, error)
}

// SetScatter routes the engine's fact-row materializations (subspace
// semijoins and roll-up spaces) through a cluster scatter-gatherer.
// Configure at startup, before serving queries; nil restores local
// scans.
func (e *Engine) SetScatter(s RowScatterer) { e.scatter = s }

// ScatterEnabled reports whether a RowScatterer is configured.
func (e *Engine) ScatterEnabled() bool { return e.scatter != nil }

// DegradedError carries a partial scatter result: the rows gathered
// from surviving nodes (still ascending, still exact over the ranges
// that answered) plus the nodes that contributed nothing. It travels
// the error path on purpose — caches and singleflight treat it as a
// failure, so a degraded row set can never masquerade as the
// materialized subspace — and only an explore running with
// PartialOnDeadline unwraps it into a partial answer.
type DegradedError struct {
	// Nodes lists the worker addresses that failed (deadline, refusal,
	// connection loss) with no fallback available.
	Nodes []string
	// Rows is the gathered row set over the surviving ranges.
	Rows []int
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("kdap: scatter degraded, %d node(s) lost: %s",
		len(e.Nodes), strings.Join(e.Nodes, ", "))
}

// degradeKey carries the per-explore degraded-node collector through
// the context.
type degradeKey struct{}

// degradeCollector accumulates the failed nodes of every degraded
// scatter one explore performs (the base semijoin and each roll-up
// space scatter independently). Mutex-guarded: parallel attribute
// scoring may surface degraded roll-ups concurrently.
type degradeCollector struct {
	mu    sync.Mutex
	nodes map[string]bool
}

func (dc *degradeCollector) add(nodes []string) {
	dc.mu.Lock()
	if dc.nodes == nil {
		dc.nodes = make(map[string]bool, len(nodes))
	}
	for _, n := range nodes {
		dc.nodes[n] = true
	}
	dc.mu.Unlock()
}

// failed returns the sorted, deduplicated failed-node list (nil when no
// scatter degraded).
func (dc *degradeCollector) failed() []string {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if len(dc.nodes) == 0 {
		return nil
	}
	out := make([]string, 0, len(dc.nodes))
	for n := range dc.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// withDegradeCollector arms ctx to accept degraded scatters.
func withDegradeCollector(ctx context.Context, dc *degradeCollector) context.Context {
	return context.WithValue(ctx, degradeKey{}, dc)
}

// acceptDegraded passes a materialization's outcome through, except
// that a DegradedError becomes an ephemeral space over its partial rows
// iff the context carries a collector (i.e. the running explore opted
// into partial answers); the failed nodes are recorded for attribution.
// The space is never Put in the rows cache, so nothing computed over
// partial rows is retained. For every other caller the error stays an
// error.
func acceptDegraded(ctx context.Context, sp *space, err error) (*space, error) {
	var de *DegradedError
	if !errors.As(err, &de) {
		return sp, err
	}
	dc, _ := ctx.Value(degradeKey{}).(*degradeCollector)
	if dc == nil {
		return nil, err
	}
	dc.add(de.Nodes)
	return newSpace(de.Rows, 0), nil
}

// FactRowsRange returns the fact rows in [lo, hi) that satisfy the
// constraints and the numeric filters — exactly the slice of the full
// materialization that falls in the range. It is the one local
// materialization body: the whole sub-dataspace is the range
// [0, FactLen), a cached row set extends over an ingest tail, and a
// cluster worker scans the range it owns (dimension tables are
// replicated, so the semijoin never leaves the node; the coordinator
// uses it for hedged and fallback re-scans of a lost node's range).
//
// Numeric drills on fact columns double as declarative bounds for the
// executor's planner: a segment whose zone misses the bound interval is
// skipped before any bitset is intersected. The filters still run on
// the survivors, so the rows are exactly the unbounded semijoin's after
// filtering.
func (e *Engine) FactRowsRange(ctx context.Context, cs []olap.Constraint, filters []NumericFilter, lo, hi int) ([]int, error) {
	var bounds []olap.Bound
	for _, nf := range filters {
		if nf.OnFact {
			blo, bhi := nf.bounds()
			bounds = append(bounds, olap.Bound{Col: nf.Attr.Attr, Lo: blo, Hi: bhi})
		}
	}
	rows, err := e.exec.FactRowsInRange(ctx, cs, bounds, lo, hi)
	if err != nil {
		return nil, err
	}
	return e.applyFiltersCtx(ctx, rows, filters)
}
