package kdapcore

// Streaming ingest with incremental maintenance. AppendFacts is the
// engine's single writer entry point: it appends a batch of fact rows
// through relation.Table.AppendFacts (resident or disk-backed tail
// segments alike), indexes any new full-text values the batch
// introduced, and then retires every cached explore answer at once.
//
// Consistency model (per-scan prefix consistency):
//
//   - Readers never block on an append and never see torn rows: every
//     scan covers at least the fact length published when it started,
//     and derived structures (constraint bitsets, code vectors, zone
//     maps, materialized row sets) extend lazily to whatever length a
//     scan observes — they are never rebuilt and never shrink.
//   - A query that raced an append may answer from either side of it.
//     What cannot happen is a *cached* answer computed before an append
//     being served after it: the append advances the answer store's
//     version (cache.Answers.Bump), and a fill that began under the old
//     version is dropped instead of stored.
//   - Appends are serialized by ingestMu; concurrency is between the
//     one writer and many readers, never writer/writer.
//
// Invalidation rules:
//
//   - Explore answers: every append retires all of them. Whether the
//     batch touched a given answer's spaces is decided one layer down,
//     where it is cheap: a repeat explore finds its untouched spaces
//     carried forward, distributions included, and rebuilds only the
//     ones the batch grew.
//   - Differentiate answers: they depend only on the schema graph and
//     the full-text index, so they are retired only when the batch
//     added new postings (new values in fact full-text columns) —
//     never on a plain measure append.
//   - Materialized spaces (rowsCache) are not evicted at all: each
//     entry records its coverage and, at next fetch, is either carried
//     forward over the appended range or replaced by a fresh space over
//     the grown row set (engine.go).

import (
	"context"

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
	// EvictedExplore and EvictedDiff count answer-cache entries the
	// batch retired: every explore answer, and every differentiate
	// answer when the batch added new terms.
	EvictedExplore int `json:"evicted_explore"`
	EvictedDiff    int `json:"evicted_diff"`
	// Kept counts cached answers that survived the batch: the
	// differentiate answers of a batch that added no new term.
	Kept int `json:"kept"`
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
// after each batch's eviction pass and participates in HTTP ETags, so
// any append retires every conditional tag, as it retires every cached
// explore answer.
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
	res.EvictedExplore, res.EvictedDiff, res.Kept = e.evictForAppend(res.NewTerms > 0)
	sp.End()

	e.ingestSeq.Add(1)
	e.ingestBatches.Add(1)
	e.ingestRows.Add(int64(res.Rows))
	e.ingestTerms.Add(int64(res.NewTerms))
	e.ingestEvicted.Add(int64(res.EvictedExplore + res.EvictedDiff))
	e.ingestKept.Add(int64(res.Kept))
	return res, nil
}

// indexAppendedValues feeds the batch's full-text values into the
// index (Add is a dedup no-op for known values) and returns the number
// of new terms. Engines over facts without full-text columns (the AW
// warehouses) skip all of it.
func (e *Engine) indexAppendedValues(fact *relation.Table, rows [][]relation.Value) int {
	ftCols := fact.Schema().FullTextColumns()
	if len(ftCols) == 0 || e.index == nil {
		return 0
	}
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
		}
	}
	return e.index.TermCount() - before
}

// evictForAppend retires what an append can make stale: every explore
// answer, and every differentiate answer when newTerms says the batch
// added postings. kept reports the cached answers that survived.
func (e *Engine) evictForAppend(newTerms bool) (expl, diff, kept int) {
	if e.explAnswers == nil {
		return 0, 0, 0
	}
	expl = e.explAnswers.Bump()
	if newTerms {
		// New postings can change hit sets and therefore every
		// differentiate answer; plain measure appends change none.
		diff = e.diffAnswers.Bump()
	} else {
		kept = e.diffAnswers.Len()
	}
	return expl, diff, kept
}
