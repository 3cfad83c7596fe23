package kdapcore

// Streaming ingest with incremental maintenance. AppendFacts is the
// engine's single writer entry point: it appends a batch of fact rows
// through relation.Table.AppendFacts (resident or disk-backed tail
// segments alike), indexes any new full-text values the batch
// introduced, and then invalidates cached answers with *delta scope* — only answers whose sub-dataspace or
// roll-up background spaces could contain an appended row are evicted;
// everything else keeps serving from cache.
//
// Consistency model (per-scan prefix consistency):
//
//   - Readers never block on an append and never see torn rows: every
//     scan covers at least the fact length published when it started,
//     and derived structures (constraint bitsets, code vectors, zone
//     maps, materialized row sets) extend lazily to whatever length a
//     scan observes — they are never rebuilt and never shrink.
//   - A query that raced an append may answer from either side of it.
//     What cannot happen is a *cached* stale answer surviving rows that
//     affect it: the eviction predicate is recorded by the answer store
//     (cache.Answers.EvictIf), so even an in-flight computation that
//     began before the append cannot publish a pre-append answer for an
//     affected key afterwards.
//   - Appends are serialized by ingestMu; concurrency is between the
//     one writer and many readers, never writer/writer.
//
// Invalidation rules:
//
//   - Explore answers: the answer for key k (net sn) depends on the
//     rows of its subspace (filters ∧ all constraints) and of each
//     roll-up background space. Every such space is contained in some
//     "drop one constraint" variant (filters ∧ ⋀_{j≠i} c_j), so k is
//     evicted iff some variant admits an appended row. Keys whose
//     provenance is unknown (evicted from the exploreDeps registry) are
//     evicted conservatively.
//   - Differentiate answers: they depend only on the schema graph and
//     the full-text index, so they are evicted only when the batch
//     added new postings (new values in fact full-text columns) —
//     never on a plain measure append.
//   - Materialized row sets (rowsCache) are not evicted at all: each
//     entry records its coverage and extends itself over the appended
//     range at next fetch (engine.go).

import (
	"context"
	"sync"

	"kdap/internal/fulltext"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// AppendResult summarizes one accepted ingest batch.
type AppendResult struct {
	// Start is the fact row ID of the first appended row; the batch
	// occupies [Start, Start+Rows).
	Start int `json:"start"`
	// Rows is the number of rows appended.
	Rows int `json:"rows"`
	// NewTerms counts full-text terms first seen in this batch.
	NewTerms int `json:"new_terms,omitempty"`
	// EvictedExplore and EvictedDiff count answer-cache entries retired
	// because the batch intersects their dependency scope.
	EvictedExplore int `json:"evicted_explore"`
	EvictedDiff    int `json:"evicted_diff"`
	// KeptExplore counts explore answers that survived the append —
	// the delta-invalidation win over a global cache nuke.
	KeptExplore int `json:"kept_explore"`
}

// IngestStats is a point-in-time snapshot of the engine's ingest
// counters, mirrored as kdap_ingest_* metrics by the HTTP layer.
type IngestStats struct {
	Batches        int64
	Rows           int64
	NewTerms       int64
	EvictedAnswers int64
	KeptAnswers    int64
}

// IngestStats snapshots the ingest counters.
func (e *Engine) IngestStats() IngestStats {
	return IngestStats{
		Batches:        e.ingestBatches.Load(),
		Rows:           e.ingestRows.Load(),
		NewTerms:       e.ingestTerms.Load(),
		EvictedAnswers: e.ingestEvicted.Load(),
		KeptAnswers:    e.ingestKept.Load(),
	}
}

// IngestSeq returns the number of accepted append batches. It advances
// after each batch's eviction pass and participates in HTTP ETags:
// client-side revalidation is conservative (any append retires every
// conditional tag), while the server-side answer cache stays
// delta-scoped.
func (e *Engine) IngestSeq() uint64 { return e.ingestSeq.Load() }

// AppendFacts appends a batch of fact rows and incrementally maintains
// everything derived from the fact table. Values must match the fact
// schema (ints widen into float columns); the whole batch is rejected
// on the first invalid row, before any row lands. Safe to call
// concurrently with queries; concurrent AppendFacts calls serialize.
func (e *Engine) AppendFacts(ctx context.Context, rows [][]relation.Value) (AppendResult, error) {
	if len(rows) == 0 {
		return AppendResult{}, nil
	}
	ctx, root := telemetry.StartSpan(ctx, "ingest_append")
	defer root.End()

	e.ingestMu.Lock()
	defer e.ingestMu.Unlock()

	fact := e.graph.DB().Table(e.graph.FactTable())
	lo := fact.Len()
	_, sp := telemetry.StartSpan(ctx, "append_rows")
	start, err := fact.AppendFacts(rows)
	sp.End()
	if err != nil {
		return AppendResult{}, err
	}
	hi := fact.Len()
	res := AppendResult{Start: start, Rows: hi - lo}

	_, sp = telemetry.StartSpan(ctx, "index_terms")
	res.NewTerms = e.indexAppendedValues(fact, rows)
	sp.End()

	_, sp = telemetry.StartSpan(ctx, "evict_answers")
	res.EvictedExplore, res.EvictedDiff, res.KeptExplore = e.evictForAppend(lo, hi, res.NewTerms > 0)
	sp.End()

	e.ingestSeq.Add(1)
	e.ingestBatches.Add(1)
	e.ingestRows.Add(int64(res.Rows))
	e.ingestTerms.Add(int64(res.NewTerms))
	e.ingestEvicted.Add(int64(res.EvictedExplore + res.EvictedDiff))
	e.ingestKept.Add(int64(res.KeptExplore))
	return res, nil
}

// indexAppendedValues feeds the batch's full-text values into the
// index (Add is a dedup no-op for known values) and refreshes segment
// skip hints for every value the batch touched — a known value landing
// in a fresh tail segment needs its hint to cover that segment too.
// Returns the number of new terms. Engines over facts without
// full-text columns (the AW warehouses) skip all of it.
func (e *Engine) indexAppendedValues(fact *relation.Table, rows [][]relation.Value) int {
	ftCols := fact.Schema().FullTextColumns()
	if len(ftCols) == 0 || e.index == nil {
		return 0
	}
	segmenter, _ := fact.Backing().(relation.TermSegmenter)
	before := e.index.TermCount()
	for _, col := range ftCols {
		ci := fact.Schema().ColumnIndex(col)
		seen := make(map[relation.Value]bool)
		for _, row := range rows {
			v := row[ci]
			if v.IsNull() || seen[v] {
				continue
			}
			seen[v] = true
			e.index.Add(fact.Name(), col, v)
			if segmenter != nil {
				if segs, ok := segmenter.ValueSegments(col, v); ok {
					e.index.AddDocSegments(fulltext.Doc{Table: fact.Name(), Attr: col, Value: v}, segs)
				}
			}
		}
	}
	return e.index.TermCount() - before
}

// evictForAppend retires exactly the cached answers the appended row
// range [lo, hi) can affect. kept reports how many explore answers
// survived.
func (e *Engine) evictForAppend(lo, hi int, newTerms bool) (expl, diff, kept int) {
	if e.explAnswers == nil {
		return 0, 0, 0
	}
	before := e.explAnswers.Len()
	expl = e.explAnswers.EvictIf(e.appendEvictionPred(lo, hi))
	kept = before - expl
	if newTerms {
		// New postings can change hit sets and therefore every
		// differentiate answer; plain measure appends change none.
		diff = e.diffAnswers.EvictIf(func(string) bool { return true })
	}
	return expl, diff, kept
}

// appendEvictionPred builds the delta-scope predicate for one appended
// row range. The predicate is memoized per key because the answer
// store re-applies it to late puts from computations that began before
// the append (cache.Answers); the decision is deterministic either
// way, the memo just skips repeat bitset walks.
func (e *Engine) appendEvictionPred(lo, hi int) func(key string) bool {
	var mu sync.Mutex
	memo := make(map[string]bool)
	return func(key string) bool {
		mu.Lock()
		v, ok := memo[key]
		mu.Unlock()
		if ok {
			return v
		}
		v = e.appendTouchesKey(key, lo, hi)
		mu.Lock()
		memo[key] = v
		mu.Unlock()
		return v
	}
}

// appendTouchesKey decides whether rows [lo, hi) can affect the explore
// answer stored under key. Unknown provenance evicts conservatively.
func (e *Engine) appendTouchesKey(key string, lo, hi int) bool {
	sn, ok := e.exploreDeps.Get(key)
	if !ok {
		return true
	}
	return e.appendIntersects(context.Background(), sn, lo, hi)
}

// appendIntersects reports whether any appended row falls inside the
// net's dependency scope: its subspace or any roll-up background
// space. Each roll-up space — however far buildRollupsCtx climbed the
// hierarchy — is contained in the "drop one constraint" variant of its
// group, and the subspace is contained in every variant, so checking
// the variants (under the net's filters) covers the whole scope. With
// no constraints the scope is the filtered dataspace itself. Errors
// evict conservatively — a failed proof of disjointness is not one.
func (e *Engine) appendIntersects(ctx context.Context, sn *StarNet, lo, hi int) bool {
	base := sn.Constraints()
	variants := make([][]olap.Constraint, 0, len(base)+1)
	if len(base) == 0 {
		variants = append(variants, nil)
	}
	for i := range base {
		others := make([]olap.Constraint, 0, len(base)-1)
		others = append(others, base[:i]...)
		others = append(others, base[i+1:]...)
		variants = append(variants, others)
	}
	for _, cs := range variants {
		rows, err := e.FactRowsRange(ctx, cs, sn.Filters, lo, hi)
		if err != nil || len(rows) > 0 {
			return true
		}
	}
	return false
}
