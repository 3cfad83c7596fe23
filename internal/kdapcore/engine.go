package kdapcore

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"kdap/internal/cache"
	"kdap/internal/fulltext"
	"kdap/internal/olap"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// Engine is a KDAP session over one warehouse: it answers keyword queries
// with ranked star nets (differentiate) and builds dynamic facets over a
// chosen net's sub-dataspace (explore). An Engine is safe for concurrent
// use.
type Engine struct {
	graph   *schemagraph.Graph
	index   *fulltext.Index
	exec    *olap.Executor
	measure olap.Measure
	agg     olap.Agg

	hitLim hitLimits
	netLim netLimits
	// sim holds the text-relevance model behind an atomic pointer: the
	// Engine is documented safe for concurrent use, and SetTextSimilarity
	// may race with in-flight differentiate calls (a nil pointer means
	// the default TF-IDF model).
	sim atomic.Pointer[fulltext.Similarity]

	// Materialized spaces — a net's own sub-dataspace and roll-up
	// background spaces alike — keyed by constraintsKey, and the
	// distributions computed over them, keyed by the space's identity
	// (space.go). Repeated exploration of the same interpretation skips
	// the semijoin and the scans; a drilled or sibling net finds its
	// background here. The paper's §7 notes subspace aggregation as the
	// cost to optimize; this is the simplest materialization that helps
	// an interactive session. The row lists are bounded by bytes and the
	// distributions, a few KB a space, by a count of spaces, so a space
	// whose rows were evicted is rebuilt by a semijoin alone.
	// Second-chance eviction keeps the spaces the session keeps returning
	// to. Each row list records the fact length it covers; entries left
	// behind by a streaming append are extended over just the appended
	// rows at next fetch, never rebuilt.
	rowsCache *cache.Clock[string, *space]
	dists     *cache.Clock[spaceID, *distMemo]

	// Answer caches: finished differentiate and explore results, enabled
	// by SetAnswerCache (nil = disabled). See answers.go.
	diffAnswers *cache.Answers[[]*StarNet]
	explAnswers *cache.Answers[*Facets]

	// Streaming-ingest state (see ingest.go): the single-writer append
	// gate, the per-append sequence that feeds HTTP revalidation tags,
	// and the kdap_ingest_* counters.
	ingestMu      sync.Mutex
	ingestSeq     atomic.Uint64
	ingestBatches atomic.Int64
	ingestRows    atomic.Int64
	ingestTerms   atomic.Int64
	ingestEvicted atomic.Int64
	ingestKept    atomic.Int64
}

const (
	// rowsCacheBytes bounds the row ids the subspace cache holds. The
	// widest space of the paper's 60k-fact mart is 480 KB, so its spaces
	// are rarely evicted; at a million facts the wide roll-ups (up to
	// 8 MB each) are.
	rowsCacheBytes = 32 << 20
	// distsCap bounds the spaces whose distributions are kept.
	distsCap = 1024
)

// rowsBytes weighs a space in the subspace cache by its row ids.
func rowsBytes(sp *space) int64 { return int64(cap(sp.rows)) * bits.UintSize / 8 }

// NewEngine creates an engine. The measure and aggregation define the
// pre-defined aggregate of §3 (the experiments use SUM of revenue).
func NewEngine(g *schemagraph.Graph, ix *fulltext.Index, m olap.Measure, agg olap.Agg) *Engine {
	return &Engine{
		graph:     g,
		index:     ix,
		exec:      olap.NewExecutor(g),
		measure:   m,
		agg:       agg,
		hitLim:    defaultHitLimits(),
		netLim:    defaultNetLimits(),
		rowsCache: cache.NewWeightedClock[string](rowsCacheBytes, rowsBytes),
		dists:     cache.NewClock[spaceID, *distMemo](distsCap),
	}
}

// SetTextSimilarity switches the text-relevance model used when probing
// the full-text index (default: the classic TF-IDF the paper's prototype
// used). The Figure 4 ablation compares ranking quality across models.
// Safe to call while queries are in flight: an in-flight differentiate
// sees either the old or the new model, never a torn write.
func (e *Engine) SetTextSimilarity(s fulltext.Similarity) { e.sim.Store(&s) }

// textSimilarity loads the current text-relevance model (defaults to
// classic TF-IDF when SetTextSimilarity has never been called).
func (e *Engine) textSimilarity() fulltext.Similarity {
	if p := e.sim.Load(); p != nil {
		return *p
	}
	return fulltext.ClassicTFIDF
}

// Graph returns the engine's schema graph.
func (e *Engine) Graph() *schemagraph.Graph { return e.graph }

// Executor returns the engine's OLAP executor.
func (e *Engine) Executor() *olap.Executor { return e.exec }

// Measure returns the engine's measure.
func (e *Engine) Measure() olap.Measure { return e.measure }

// Agg returns the engine's aggregation function.
func (e *Engine) Agg() olap.Agg { return e.agg }

// DifferentiateCtx runs the first KDAP phase with the paper's standard
// ranking: keyword query in, ranked candidate star nets out. When a
// telemetry.Trace is attached, each pipeline stage is recorded as a
// span (filter_extract → hit_probe → phrase_merge → seed_enum →
// starnet_gen → rank).
func (e *Engine) DifferentiateCtx(ctx context.Context, query string) ([]*StarNet, error) {
	return e.DifferentiateRankedCtx(ctx, query, Standard)
}

// DifferentiateRankedCtx is DifferentiateCtx with an explicit ranking
// method (the Figure 4 evaluation sweeps all four), served through the
// answer cache when one is configured (SetAnswerCache): repeats within
// the TTL are served from the store. How the answer was served is
// recorded on the request's trace (telemetry.FromContext). The
// returned nets are shared — treat as immutable.
func (e *Engine) DifferentiateRankedCtx(ctx context.Context, query string, method RankMethod) ([]*StarNet, error) {
	if e.diffAnswers == nil {
		noteCache(ctx, cacheBypass)
		return e.differentiateRanked(ctx, query, method)
	}
	return cachedAnswer(ctx, e.diffAnswers, diffAnswerKey(query, method), func(ctx context.Context) ([]*StarNet, bool, error) {
		nets, err := e.differentiateRanked(ctx, query, method)
		return nets, true, err
	})
}

// differentiateRanked is the uncached differentiate pipeline.
func (e *Engine) differentiateRanked(ctx context.Context, query string, method RankMethod) ([]*StarNet, error) {
	ctx, root := telemetry.StartSpan(ctx, "differentiate")
	defer root.End()

	tokens := splitKeywords(query)
	if len(tokens) == 0 {
		return nil, fmt.Errorf("kdap: empty keyword query")
	}
	_, sp := telemetry.StartSpan(ctx, "filter_extract")
	filters, keywords, err := e.extractFilters(tokens)
	sp.End()
	if err != nil {
		return nil, err
	}
	if len(keywords) == 0 {
		// Pure-predicate query: one interpretation over the whole
		// dataspace, sliced by the filters alone.
		if len(filters) == 0 {
			return nil, fmt.Errorf("kdap: empty keyword query")
		}
		return []*StarNet{{Query: query, Filters: filters, Score: 1}}, nil
	}
	sim := e.textSimilarity()

	_, sp = telemetry.StartSpan(ctx, "hit_probe")
	sets, err := buildHitSets(ctx, e.index, keywords, e.hitLim, sim)
	sp.End()
	if err != nil {
		return nil, err
	}

	_, sp = telemetry.StartSpan(ctx, "phrase_merge")
	merged, err := mergePhrases(ctx, e.index, sets, keywords, sim)
	sp.End()
	if err != nil {
		return nil, err
	}

	_, sp = telemetry.StartSpan(ctx, "seed_enum")
	seeds := enumerateSeeds(sets, merged, e.netLim.maxSeeds)
	sp.End()
	if len(seeds) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	_, sp = telemetry.StartSpan(ctx, "starnet_gen")
	nets := generateStarNets(e.graph, query, seeds, e.netLim)
	for _, sn := range nets {
		sn.Filters = filters
	}
	sp.End()
	telemetry.Count(ctx, telemetry.Candidates, len(nets))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	_, sp = telemetry.StartSpan(ctx, "rank")
	rankStarNets(e.graph, nets, method)
	sp.End()
	return nets, nil
}

// splitKeywords splits a raw query on whitespace, keeping original word
// forms (normalization happens inside the text index).
func splitKeywords(query string) []string {
	return strings.Fields(query)
}

// SuggestKeywords returns, for each query keyword that matches nothing
// in the index (even with prefix expansion), up to max "did you mean"
// term suggestions within edit distance 2. Numeric predicate tokens are
// skipped.
func (e *Engine) SuggestKeywords(query string, max int) map[string][]string {
	out := make(map[string][]string)
	for _, kw := range splitKeywords(query) {
		if _, _, _, isFilter := parseFilterToken(kw); isFilter {
			continue
		}
		if hits := e.index.Search(kw, fulltext.Options{Prefix: true, Limit: 1}); len(hits) > 0 {
			continue
		}
		if sugg := e.index.Suggest(kw, max); len(sugg) > 0 {
			out[kw] = sugg
		}
	}
	return out
}

// SubspaceRowsCtx materializes the fact rows of the net's sub-dataspace
// DS', cached under its constraint set. The returned slice is shared
// and must not be modified.
func (e *Engine) SubspaceRowsCtx(ctx context.Context, sn *StarNet) ([]int, error) {
	sp, err := e.subspaceRowsCtx(ctx, sn)
	if err != nil {
		return nil, err
	}
	return sp.rows, nil
}

// subspaceRowsCtx resolves the net's sub-dataspace DS' as a space,
// recorded as a subspace_semijoin span (cache hits are effectively free
// and show up as near-zero spans).
func (e *Engine) subspaceRowsCtx(ctx context.Context, sn *StarNet) (*space, error) {
	ctx, span := telemetry.StartSpan(ctx, "subspace_semijoin")
	defer span.End()
	return e.factRowsKeyed(ctx, sn.Constraints(), sn.Filters)
}

// factRowsRange returns the fact rows in [lo, hi) that satisfy the
// constraints and the numeric filters — exactly the slice of the full
// materialization that falls in the range. It is the one materialization
// body: the whole sub-dataspace is the range [0, FactLen), and a cached
// row set extends over an ingest tail.
//
// Numeric drills on fact columns double as declarative bounds for the
// executor's planner: a segment whose zone misses the bound interval is
// skipped before any bitset is intersected. The filters still run on
// the survivors, so the rows are exactly the unbounded semijoin's after
// filtering.
func (e *Engine) factRowsRange(ctx context.Context, cs []olap.Constraint, filters []NumericFilter, lo, hi int) ([]int, error) {
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

// extendRowsEntry grows a cached space to the current fact length: the
// appended row range is checked against the same constraint bitsets and
// filters that built the entry. Facts are append-only and dimensions
// frozen, so a row set under a fixed key only ever grows: when no
// appended row qualifies the space keeps its rows, and so its identity
// and its distributions, with its coverage advanced; when some do, the
// qualifying tail rows follow the old ones in a fresh slice (readers
// holding the old slice are unaffected) under a new identity, whose
// distributions start empty — the from-scratch rebuild. A space's rows
// are exactly those below its upTo, so the tail never repeats one.
func (e *Engine) extendRowsEntry(ctx context.Context, sp *space, n int,
	cs []olap.Constraint, filters []NumericFilter) (*space, error) {

	_, span := telemetry.StartSpan(ctx, "subspace_extend")
	defer span.End()
	tail, err := e.factRowsRange(ctx, cs, filters, sp.upTo, n)
	if err != nil {
		return nil, err
	}
	next := &space{key: sp.key, rows: sp.rows, upTo: n}
	if len(tail) > 0 {
		next.rows = append(slices.Clip(sp.rows), tail...)
	}
	e.rowsCache.Put(sp.key, next)
	return next, nil
}

// factRowsKeyed materializes a constrained-and-filtered row set as a
// space under its canonical key, serving repeats from the subspace
// cache. Sub-dataspaces and roll-up background spaces both go through
// here, so a space is held once whatever role it was first reached in.
// Concurrent first requests for one key each scan, and the last Put
// wins: they compute the same rows, and making one wait for the other
// did not pay (DESIGN.md "Cache layers, by ablation"). A cancelled
// materialization is never cached: partial row sets must not
// masquerade as the space.
func (e *Engine) factRowsKeyed(ctx context.Context, cs []olap.Constraint, filters []NumericFilter) (*space, error) {
	key := constraintsKey(cs, filters)
	n := e.exec.FactLen()
	if sp, ok := e.rowsCache.Get(key); ok {
		if sp.upTo >= n {
			return sp, nil
		}
		return e.extendRowsEntry(ctx, sp, n, cs, filters)
	}
	rows, err := e.factRowsRange(ctx, cs, filters, 0, n)
	if err != nil {
		return nil, err
	}
	sp := &space{key: key, rows: rows, upTo: n}
	e.rowsCache.Put(key, sp)
	return sp, nil
}

// RowsCacheStats snapshots the materialized-subspace cache counters.
func (e *Engine) RowsCacheStats() cache.Stats { return e.rowsCache.Stats() }

// DistributionStats snapshots the distribution memo's counters, in
// spaces: every distribution asked looks up its space's memo, and a
// miss is a space identity with none yet.
func (e *Engine) DistributionStats() cache.Stats { return e.dists.Stats() }

// InvalidateSubspaceRows drops every materialized space and every
// distribution, so the next SubspaceRowsCtx or ExploreCtx recomputes
// the semijoin and the scans. Benchmarks use it to time the cold drill
// path.
func (e *Engine) InvalidateSubspaceRows() {
	e.rowsCache.Purge()
	e.dists.Purge()
}

// Index returns the engine's full-text index (telemetry wiring).
func (e *Engine) Index() *fulltext.Index { return e.index }
