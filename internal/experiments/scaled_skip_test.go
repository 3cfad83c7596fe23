package experiments

import (
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/persist"
	"kdap/internal/relation"
)

// A selective drill over the scaled warehouse's ingest-clustered
// SalesKey must be answered from disk while proving the majority of
// segments irrelevant from manifest evidence alone (zone maps, Bloom
// filters) — the acceptance floor the 10M-fact bench rung holds to.
// Here the scale is shrunk (100k facts, 2k-row segments) so the test
// stays tier-1 fast; the skip geometry is identical, only the constant
// differs.
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
	segNets, err := seg.Differentiate(query)
	if err != nil || len(segNets) == 0 {
		t.Fatalf("differentiate backed: %v (%d nets)", err, len(segNets))
	}
	resNets, err := res.Differentiate(query)
	if err != nil || len(resNets) == 0 {
		t.Fatalf("differentiate resident: %v (%d nets)", err, len(resNets))
	}

	before, planBefore := store.Stats(), seg.Executor().Stats()
	rows := seg.SubspaceRows(segNets[0])
	after, planAfter := store.Stats(), seg.Executor().Stats()
	if len(rows) == 0 {
		t.Fatal("drill produced no rows")
	}
	if want := res.SubspaceRows(resNets[0]); len(rows) != len(want) {
		t.Fatalf("backed drill %d rows, resident oracle %d", len(rows), len(want))
	}

	nseg := relation.NumSegments(store.NumRows(), store.SegmentSize())
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
