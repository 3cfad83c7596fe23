package kdapcore

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/telemetry"
	"kdap/internal/workload"
)

// ingestTestEngine builds an engine with the paper's revenue measure
// (mirrors experiments.Engine, which tests in this package cannot
// import without a cycle).
func ingestTestEngine(wh *dataset.Warehouse) *Engine {
	fact := wh.DB.Table(wh.Graph.FactTable())
	var m olap.Measure
	switch {
	case fact.Schema().HasColumn("OrderQuantity"):
		m = olap.ProductMeasure(fact, "SalesRevenue", "UnitPrice", "OrderQuantity")
	case fact.Schema().HasColumn("Quantity"):
		m = olap.ProductMeasure(fact, "SalesRevenue", "UnitPrice", "Quantity")
	default:
		m = olap.CountMeasure()
	}
	return NewEngine(wh.Graph, wh.Index, m, olap.Sum)
}

// emptySubspaceErr mirrors the benchmark's classification of the one
// expected per-query failure mode.
func emptySubspaceErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "empty sub-dataspace")
}

// cachedFingerprint resolves a query to its top net's facet fingerprint
// through the answer cache, reporting how the explore was served.
func cachedFingerprint(t *testing.T, e *Engine, q string, opts ExploreOptions) ([]byte, string) {
	t.Helper()
	ctx := context.Background()
	nets, _, err := differentiateOutcome(ctx, e, q)
	if err != nil {
		t.Fatalf("differentiate %q: %v", q, err)
	}
	if len(nets) == 0 {
		t.Fatalf("differentiate %q: no interpretations", q)
	}
	f, out, err := exploreOutcome(ctx, e, nets[0], opts)
	if emptySubspaceErr(err) {
		return []byte("empty sub-dataspace"), out
	}
	if err != nil {
		t.Fatalf("explore %q: %v", q, err)
	}
	return f.Fingerprint(), out
}

// uncachedFingerprint is cachedFingerprint against an engine with no
// answer cache (the from-scratch oracle).
func uncachedFingerprint(t *testing.T, e *Engine, q string, opts ExploreOptions) []byte {
	t.Helper()
	nets, err := e.DifferentiateCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("oracle differentiate %q: %v", q, err)
	}
	if len(nets) == 0 {
		t.Fatalf("oracle differentiate %q: no interpretations", q)
	}
	f, err := e.ExploreCtx(context.Background(), nets[0], opts)
	if emptySubspaceErr(err) {
		return []byte("empty sub-dataspace")
	}
	if err != nil {
		t.Fatalf("oracle explore %q: %v", q, err)
	}
	return f.Fingerprint()
}

// TestAppendCacheConsistencyProperty is the streaming-ingest cache
// oracle over the full 50-query workload: warm every query's answer,
// stream in a tail of facts, and re-ask everything. Every post-append
// explore must be recomputed (the appends retired every cached one) over
// spaces the engine carried or rebuilt, and must be byte-identical to a
// from-scratch engine built over the full data.
func TestAppendCacheConsistencyProperty(t *testing.T) {
	const (
		scale    = 60_000
		resident = 45_000
	)
	wh, tail := dataset.AWOnlineScaledPartial(scale, resident)
	e := ingestTestEngine(wh)
	e.SetAnswerCache(256, 0)
	qs := workload.AWOnlineQueries()
	opts := DefaultExploreOptions()

	pre := make([][]byte, len(qs))
	for i, q := range qs {
		pre[i], _ = cachedFingerprint(t, e, q.Text, opts)
	}

	const batch = 4096
	for lo := 0; lo < len(tail); lo += batch {
		hi := lo + batch
		if hi > len(tail) {
			hi = len(tail)
		}
		if _, err := e.AppendFacts(context.Background(), tail[lo:hi]); err != nil {
			t.Fatalf("append [%d,%d): %v", lo, hi, err)
		}
	}

	oracle := ingestTestEngine(dataset.AWOnlineScaled(scale))
	changed := 0
	for i, q := range qs {
		post, out := cachedFingerprint(t, e, q.Text, opts)
		if out == cacheHit {
			t.Errorf("%q: explore served from an answer cached before the appends", q.Text)
		}
		if !bytes.Equal(post, pre[i]) {
			changed++
		}
		if want := uncachedFingerprint(t, oracle, q.Text, opts); !bytes.Equal(post, want) {
			t.Errorf("%q: post-append answer differs from the from-scratch rebuild", q.Text)
		}
	}
	if changed == 0 {
		t.Error("append of 15k facts changed no workload answer; the property test is vacuous")
	}
	t.Logf("%d/%d answers changed across the append", changed, len(qs))
}

// TestAppendRetiresExploreAnswers: an append empties the explore answer
// store, even for a row that lands outside the cached net's subspace
// and roll-ups, so the repeat explore is computed again — and matches an
// engine built fresh over the grown table — while the differentiate
// answer, which a batch with no new full-text term cannot change, is
// still served from the cache.
func TestAppendRetiresExploreAnswers(t *testing.T) {
	const query = "Columbus LCD"
	opts := DefaultExploreOptions()
	row := []relation.Value{
		relation.Int(int64(dataset.EBizFactCount + 1)),
		relation.Int(1),  // TransKey
		relation.Int(20), // ProductKey: not an LCD
		relation.Int(3),
		relation.Float(9.99),
	}
	e := ingestTestEngine(dataset.EBiz())
	e.SetAnswerCache(64, 0)
	if _, out := cachedFingerprint(t, e, query, opts); out != cacheMiss {
		t.Fatalf("cold explore: %v, want miss", out)
	}
	if _, err := e.AppendFacts(context.Background(), [][]relation.Value{row}); err != nil {
		t.Fatal(err)
	}
	diff, expl, _ := e.AnswerCacheStats()
	if expl.Len != 0 || expl.Bytes != 0 {
		t.Fatalf("after append: %d explore answers (%d bytes) cached, want 0", expl.Len, expl.Bytes)
	}
	if diff.Len != 1 {
		t.Fatalf("after append: %d differentiate answers cached, want the 1 kept", diff.Len)
	}

	ctx := context.Background()
	nets, dout, err := differentiateOutcome(ctx, e, query)
	if err != nil || dout != cacheHit {
		t.Fatalf("post-append differentiate: %v, %v; want a hit", dout, err)
	}
	f, out, err := exploreOutcome(ctx, e, nets[0], opts)
	if err != nil || out != cacheMiss {
		t.Fatalf("post-append explore: %v, %v; want a miss", out, err)
	}
	if _, out, _ := exploreOutcome(ctx, e, nets[0], opts); out != cacheHit {
		t.Fatalf("repeat of the post-append explore: %v, want hit", out)
	}

	owh := dataset.EBiz()
	if _, err := owh.DB.Table(owh.Graph.FactTable()).AppendFacts([][]relation.Value{row}); err != nil {
		t.Fatal(err)
	}
	if want := uncachedFingerprint(t, ingestTestEngine(owh), query, opts); !bytes.Equal(f.Fingerprint(), want) {
		t.Error("post-append explore differs from a fresh engine over the grown table")
	}
}

// TestAppendSingleRowMatchesRebuild appends single rows across a grid
// of products and transactions — inside and outside the net's subspace
// and roll-ups, on EBiz, the mart with climbing join paths — and checks
// that the next cached answer is recomputed and matches an engine built
// from scratch over the grown table.
func TestAppendSingleRowMatchesRebuild(t *testing.T) {
	const query = "Columbus LCD"
	opts := DefaultExploreOptions()
	for _, productKey := range []int64{1, 10, 20} {
		for _, transKey := range []int64{1, 500, 999} {
			row := []relation.Value{
				relation.Int(int64(dataset.EBizFactCount + 1)),
				relation.Int(transKey),
				relation.Int(productKey),
				relation.Int(3),
				relation.Float(9.99),
			}

			e := ingestTestEngine(dataset.EBiz())
			e.SetAnswerCache(64, 0)
			cachedFingerprint(t, e, query, opts)
			if _, err := e.AppendFacts(context.Background(), [][]relation.Value{row}); err != nil {
				t.Fatalf("append product=%d trans=%d: %v", productKey, transKey, err)
			}

			post, out := cachedFingerprint(t, e, query, opts)
			if out != cacheMiss {
				t.Errorf("product=%d trans=%d: post-append explore %v, want miss", productKey, transKey, out)
			}

			// Oracle: a fresh warehouse grown by the same row before any
			// engine structure exists.
			owh := dataset.EBiz()
			if _, err := owh.DB.Table(owh.Graph.FactTable()).AppendFacts([][]relation.Value{row}); err != nil {
				t.Fatal(err)
			}
			if want := uncachedFingerprint(t, ingestTestEngine(owh), query, opts); !bytes.Equal(post, want) {
				t.Errorf("product=%d trans=%d: post-append answer differs from from-scratch rebuild",
					productKey, transKey)
			}
		}
	}
}

// TestSubspaceRowsExtendAcrossAppend pins the rows-cache contract: a
// materialized row set is never evicted by an append — it extends
// itself over the appended range at next fetch, landing on exactly the
// rows a cold engine over the full table computes, ascending and
// duplicate-free.
func TestSubspaceRowsExtendAcrossAppend(t *testing.T) {
	const (
		scale    = 40_000
		resident = 30_000
	)
	wh, tail := dataset.AWOnlineScaledPartial(scale, resident)
	e := ingestTestEngine(wh)
	nets, err := e.DifferentiateCtx(context.Background(), "Road Bikes")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	before := subspaceRows(t, e, nets[0])
	if len(before) == 0 {
		t.Fatal("empty pre-append subspace")
	}

	if _, err := e.AppendFacts(context.Background(), tail); err != nil {
		t.Fatal(err)
	}
	after := subspaceRows(t, e, nets[0])

	cold := ingestTestEngine(dataset.AWOnlineScaled(scale))
	coldNets, err := cold.DifferentiateCtx(context.Background(), "Road Bikes")
	if err != nil || len(coldNets) == 0 {
		t.Fatalf("cold differentiate: %v (%d nets)", err, len(coldNets))
	}
	want := subspaceRows(t, cold, coldNets[0])
	if len(after) != len(want) {
		t.Fatalf("extended row set has %d rows, cold engine %d", len(after), len(want))
	}
	for i := range after {
		if after[i] != want[i] {
			t.Fatalf("row %d: extended %d, cold %d", i, after[i], want[i])
		}
		if i > 0 && after[i] <= after[i-1] {
			t.Fatalf("extended row set not strictly ascending at %d: %d after %d", i, after[i], after[i-1])
		}
	}
	if len(after) <= len(before) {
		t.Fatalf("append did not grow the subspace: %d -> %d", len(before), len(after))
	}
}

// TestAppendRacingSpacesMatchRebuild is the coverage property of a
// space, under a concurrent appender (run it under -race): every space
// factRowsKeyed returns — built cold, carried or extended while batches
// land — holds only rows below its upTo, and exactly the rows a
// from-scratch materialization over [0, upTo) finds.
func TestAppendRacingSpacesMatchRebuild(t *testing.T) {
	const (
		scale    = 20_000
		resident = 12_000
		batch    = 256
	)
	wh, tail := dataset.AWOnlineScaledPartial(scale, resident)
	e := ingestTestEngine(wh)
	ctx := context.Background()
	keys := [][]olap.Constraint{nil} // the full dataspace
	for _, q := range []string{"Road Bikes", "Helmets", "2001", "Mountain Bikes California", "Road Bikes SalesKey>9000"} {
		sn := top1(t, e, q)
		keys = append(keys, append(sn.Constraints(), sn.filterConstraints()...))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%3 == w {
					e.InvalidateSubspaceRows() // the next fetch builds cold
				}
				k := keys[(w+i)%len(keys)]
				sp, err := e.factRowsKeyed(ctx, k)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := e.exec.FactRowsInRange(ctx, k, 0, sp.upTo)
				if err != nil {
					t.Error(err)
					return
				}
				if len(sp.rows) != len(want) {
					t.Errorf("space over %d facts holds %d rows, a rebuild %d", sp.upTo, len(sp.rows), len(want))
					return
				}
				for j, r := range sp.rows {
					if r >= sp.upTo || r != want[j] {
						t.Errorf("space over %d facts: row %d is %d, a rebuild's %d", sp.upTo, j, r, want[j])
						return
					}
				}
			}
		}(w)
	}
	for lo := 0; lo < len(tail); lo += batch {
		if _, err := e.AppendFacts(ctx, tail[lo:min(lo+batch, len(tail))]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestDistributionIdentityAcrossAppend pins what an append does to a
// space's distributions, which are kept under its identity (key, row
// count): a space no appended row falls in keeps its identity and so
// adopts its distributions, with its coverage advanced; a space the
// batch grows has a new identity and computes its distributions afresh,
// while a reader still holding the old space finds the old ones. The
// generator's appended facts are late-dated, so the CalendarYear = 2001
// slice qualifies as untouched, while its roll-up to "all" is touched
// by every batch.
func TestDistributionIdentityAcrossAppend(t *testing.T) {
	const (
		scale    = 40_000
		resident = 30_000
	)
	wh, tail := dataset.AWOnlineScaledPartial(scale, resident)
	e := ingestTestEngine(wh)
	ctx := context.Background()
	opts := DefaultExploreOptions()
	sn := top1(t, e, "2001")
	if _, err := e.ExploreCtx(ctx, sn, opts); err != nil {
		t.Fatal(err)
	}
	year, rollups := spacesOf(t, e, sn)
	if len(rollups) != 1 || len(rollups[0].sp.rows) != resident {
		t.Fatalf("expected one roll-up to all %d rows, got %d roll-ups", resident, len(rollups))
	}
	all := rollups[0].sp
	yearGB, allGB := len(distKeys(e, year, "gb")), len(distKeys(e, all, "gb"))
	if yearGB == 0 || allGB == 0 {
		t.Fatal("explore left no group-bys on its spaces")
	}

	for _, b := range [][][]relation.Value{tail[:3000], tail[3000:7000], tail[7000:]} {
		if _, err := e.AppendFacts(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	year2, rollups2 := spacesOf(t, e, sn)
	all2 := rollups2[0].sp
	if year2.id() != year.id() || len(distKeys(e, year2, "gb")) != yearGB {
		t.Error("a space no appended row falls in lost its distributions")
	}
	if year2.upTo != scale || len(year2.rows) != len(year.rows) {
		t.Errorf("carried space: upTo=%d rows=%d, want upTo=%d rows=%d", year2.upTo, len(year2.rows), scale, len(year.rows))
	}
	// (Resolving the roll-ups just now filled the grown space's
	// aggregate; its group-bys stay empty until the next explore.)
	if all2.id() == all.id() || len(distKeys(e, all2, "gb")) != 0 {
		t.Error("a space the append grew found distributions computed over its old rows")
	}
	if len(all2.rows) != scale {
		t.Errorf("extended \"all\" has %d rows, want %d", len(all2.rows), scale)
	}
	if len(distKeys(e, all, "gb")) != allGB {
		t.Error("the pre-append space lost the distributions computed over its rows")
	}

	// The explore after the appends scans only what changed — "all" —
	// and lands on the bytes an engine that first sees the table at its
	// final length computes.
	tr := telemetry.NewTrace("explore")
	f, err := e.ExploreCtx(tr.Context(ctx), sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Count(telemetry.GroupBys), int64(len(distKeys(e, all2, "gb"))); got != want {
		t.Errorf("post-append explore ran %d group-by kernels, want %d (the touched space's only)", got, want)
	}
	fresh, err := ingestTestEngine(wh).ExploreCtx(ctx, sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Fingerprint(), fresh.Fingerprint()) {
		t.Error("facets over carried and rebuilt spaces differ from a fresh engine's over the same rows")
	}
}

// TestIngestConcurrentWithQueries is the writer/reader soak (run it
// under -race): one appender streams the tail in small batches while
// query workers differentiate, explore, and drill through the answer
// cache and the planner-driven executor. Afterwards every worker query must
// fingerprint byte-identically to a from-scratch build.
func TestIngestConcurrentWithQueries(t *testing.T) {
	const (
		scale    = 20_000
		resident = 12_000
		batch    = 512
	)
	wh, tail := dataset.AWOnlineScaledPartial(scale, resident)
	e := ingestTestEngine(wh)
	e.SetAnswerCache(128, 0)
	queries := []string{
		"Road Bikes", "Mountain Bikes California", "Helmets", "Jerseys",
		"Touring Bikes", "Bottles and Cages", "Gloves", "Cleaners",
	}
	opts := DefaultExploreOptions()

	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				nets, err := e.DifferentiateCtx(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d differentiate %q: %w", w, q, err)
					return
				}
				if len(nets) == 0 {
					continue
				}
				if _, err := e.ExploreCtx(ctx, nets[0], opts); err != nil && !emptySubspaceErr(err) {
					errs <- fmt.Errorf("worker %d explore %q: %w", w, q, err)
					return
				}
				if _, err := e.SubspaceRowsCtx(ctx, nets[0]); err != nil {
					errs <- fmt.Errorf("worker %d subspace %q: %w", w, q, err)
					return
				}
			}
		}(w)
	}

	for lo := 0; lo < len(tail); lo += batch {
		hi := lo + batch
		if hi > len(tail) {
			hi = len(tail)
		}
		if _, err := e.AppendFacts(context.Background(), tail[lo:hi]); err != nil {
			t.Errorf("append [%d,%d): %v", lo, hi, err)
			break
		}
		time.Sleep(2 * time.Millisecond) // let readers overlap every batch
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	oracle := ingestTestEngine(dataset.AWOnlineScaled(scale))
	for _, q := range queries {
		got, _ := cachedFingerprint(t, e, q, opts)
		if want := uncachedFingerprint(t, oracle, q, opts); !bytes.Equal(got, want) {
			t.Errorf("%q: post-soak answer differs from from-scratch rebuild", q)
		}
	}
}
