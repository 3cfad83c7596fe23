package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/persist"
	"kdap/internal/relation"
)

// A selective drill over the scaled warehouse's ingest-clustered
// SalesKey must be answered from disk while proving the majority of
// segments irrelevant from manifest evidence alone (zone maps, Bloom
// filters) — the floor BenchmarkBackedColdDrill measures at 1M and 10M
// facts. Here the scale is shrunk (100k facts, 2k-row segments) so the
// test stays tier-1 fast; the skip geometry is identical, only the
// constant differs.
func TestScaledDrillSkipsMajorityOfSegments(t *testing.T) {
	const (
		facts   = 100_000
		segSize = 2048
	)
	dir := t.TempDir()
	bwh, store, err := persist.AWOnlineScaledBacked(dir, facts, segSize)
	if err != nil {
		t.Fatalf("scaled backed build: %v", err)
	}
	defer store.Close()

	// Resident oracle from the same generator seed: the drill must see
	// the same subspace either way.
	rwh := dataset.AWOnlineScaled(facts)

	const query = "Road Bikes SalesKey>90000"
	seg, res := Engine(bwh), Engine(rwh)
	segNets, err := seg.DifferentiateCtx(context.Background(), query)
	if err != nil || len(segNets) == 0 {
		t.Fatalf("differentiate backed: %v (%d nets)", err, len(segNets))
	}
	resNets, err := res.DifferentiateCtx(context.Background(), query)
	if err != nil || len(resNets) == 0 {
		t.Fatalf("differentiate resident: %v (%d nets)", err, len(resNets))
	}

	before, planBefore := store.Stats(), seg.Executor().Stats()
	rows, err := seg.SubspaceRowsCtx(context.Background(), segNets[0])
	after, planAfter := store.Stats(), seg.Executor().Stats()
	if err != nil || len(rows) == 0 {
		t.Fatalf("drill produced no rows: %v", err)
	}
	if want, err := res.SubspaceRowsCtx(context.Background(), resNets[0]); err != nil || len(rows) != len(want) {
		t.Fatalf("backed drill %d rows, resident oracle %d (%v)", len(rows), len(want), err)
	}

	bfact := bwh.DB.Table(bwh.Graph.FactTable())
	nseg := relation.NumSegments(bfact.Len(), bfact.SegmentSize())
	// The planner's zone verdicts plus whatever the store's own lookup
	// scans skipped on Bloom or zone evidence.
	planned := planAfter.SegmentsSkippedZone - planBefore.SegmentsSkippedZone
	skipped := planned + (after.SkippedBloom - before.SkippedBloom) + (after.SkippedZone - before.SkippedZone)
	t.Logf("drill skipped %d of %d segments (%d planned on zones, %d bloom, %d lookup zone), paged in %d",
		skipped, nseg, planned,
		after.SkippedBloom-before.SkippedBloom,
		after.SkippedZone-before.SkippedZone,
		after.PagedIn-before.PagedIn)
	if skipped*2 < int64(nseg) {
		t.Errorf("drill skipped %d of %d segments, want >= 50%%", skipped, nseg)
	}
	if after.PagedIn == before.PagedIn {
		t.Error("drill paged nothing in — not actually disk-backed?")
	}

	// The resident oracle took the same route: the semijoin into facts is
	// a scan for resident and backed alike, so a frozen fact-sized table
	// holds no hash index, before or after serving the drill.
	if cols := rwh.DB.Table(rwh.Graph.FactTable()).IndexedColumns(); len(cols) != 0 {
		t.Errorf("resident fact table carries hash indexes on %v", cols)
	}
}

// BenchmarkBackedColdDrill times a selective drill served entirely from
// a disk-backed fact table at 1M and 10M facts under a 64 MiB page
// budget. Every iteration drops the segment page cache and the rows
// cache, so each page the drill touches is read from disk again. It
// reports the share of segments skipped on manifest evidence (zone maps
// and Bloom filters) and the pages read per drill. The warehouse is
// built once per size, outside the timer. Run with:
//
//	go test -run '^$' -bench BackedColdDrill -benchtime 3x ./internal/experiments
func BenchmarkBackedColdDrill(b *testing.B) {
	dir := b.TempDir()
	for _, n := range []int{1_000_000, 10_000_000} {
		var (
			store *persist.Store
			fact  *relation.Table
			e     *kdapcore.Engine
			sn    *kdapcore.StarNet
		)
		b.Run(fmt.Sprintf("facts=%d", n), func(sb *testing.B) {
			if store == nil {
				wh, st, err := persist.AWOnlineScaledBacked(filepath.Join(dir, strconv.Itoa(n)), n, 0)
				if err != nil {
					sb.Fatalf("build %d facts: %v", n, err)
				}
				b.Cleanup(func() { st.Close() })
				st.SetCacheBudget(64 << 20)
				query := fmt.Sprintf("Road Bikes SalesKey>%d", n/10*9)
				eng := Engine(wh)
				nets, err := eng.DifferentiateCtx(context.Background(), query)
				if err != nil || len(nets) == 0 {
					sb.Fatalf("differentiate %q: %v (%d nets)", query, err, len(nets))
				}
				store, fact, e, sn = st, wh.DB.Table(wh.Graph.FactTable()), eng, nets[0]
			}
			nseg := relation.NumSegments(fact.Len(), fact.SegmentSize())
			want := -1
			var skipped, pagedIn int64
			sb.ResetTimer()
			for i := 0; i < sb.N; i++ {
				store.DropCache()
				e.InvalidateSubspaceRows()
				before, planBefore := store.Stats(), e.Executor().Stats()
				rows, err := e.SubspaceRowsCtx(context.Background(), sn)
				after, planAfter := store.Stats(), e.Executor().Stats()
				if err != nil {
					sb.Fatal(err)
				}
				if want < 0 {
					want = len(rows)
				}
				if len(rows) == 0 || len(rows) != want {
					sb.Fatalf("cold drill returned %d rows, want %d (nonzero)", len(rows), want)
				}
				// Zone skips are the planner's verdicts plus the store's own
				// lookup scans; Bloom skips only ever come from the latter.
				skipped = planAfter.SegmentsSkippedZone - planBefore.SegmentsSkippedZone +
					after.SkippedZone - before.SkippedZone + after.SkippedBloom - before.SkippedBloom
				pagedIn += after.PagedIn - before.PagedIn
			}
			sb.ReportMetric(100*float64(skipped)/float64(nseg), "skipped-%")
			sb.ReportMetric(float64(pagedIn)/float64(sb.N), "pages/op")
		})
	}
}
