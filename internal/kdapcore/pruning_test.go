package kdapcore

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// Concurrent planned scans: many goroutines exploring the same engine
// must produce identical facets with no data races. Exercises the
// planner, the table's lazy fact-column zones, the lazy per-(path,attr)
// zones, the fanned-out filter and the segment counters under
// contention. Run under go test -race.
func TestConcurrentPrunedExplore(t *testing.T) {
	e := awOnlineEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Road Bikes UnitPrice>1000")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	sn := nets[0]
	opts := DefaultExploreOptions()
	opts.Parallel = true

	const workers = 8
	tr := telemetry.NewTrace("explores")
	var wg sync.WaitGroup
	errs := make([]error, workers)
	outs := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every zone and column is cold: the first explores race to
			// derive them.
			f, err := e.ExploreCtx(tr.Context(context.Background()), sn, opts)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = f.Fingerprint()
		}(i)
	}
	wg.Wait()
	want, err := e.ExploreCtx(context.Background(), sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want.Fingerprint()) {
			t.Fatalf("worker %d produced different facets", i)
		}
	}
	if tr.Count(telemetry.SegmentsScanned) == 0 {
		t.Fatal("no scan consulted the planner")
	}
}

// A numeric drill bound on the ingest-clustered SalesKey column must
// make the planner skip segments — with nothing configured: at least
// half of AW_ONLINE's 8 segments on zone evidence — while the drill's
// rows stay exactly what a boxed row-at-a-time walk of the fact table
// keeps.
func TestDrillSkipsSegments(t *testing.T) {
	e := awOnlineEngine()
	const query = "Road Bikes SalesKey>54000"
	nets, err := e.DifferentiateCtx(context.Background(), query)
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	sn := nets[0]

	tr := telemetry.NewTrace("drill")
	rows, err := e.SubspaceRowsCtx(tr.Context(context.Background()), sn)
	if err != nil {
		t.Fatal(err)
	}

	// The oracle: Road Bikes is one product subcategory; walk every fact
	// row, box it, follow ProductKey by hand.
	db := e.Graph().DB()
	fact, prod, sub := db.Table("FactInternetSales"), db.Table("DimProduct"), db.Table("DimProductSubcategory")
	roadBikes := map[relation.Value]bool{}
	for _, r := range sub.LookupIn("SubcategoryName", []relation.Value{relation.String("Road Bikes")}) {
		for _, p := range prod.LookupIn("SubcategoryKey", []relation.Value{sub.Value(r, "SubcategoryKey")}) {
			roadBikes[prod.Value(p, "ProductKey")] = true
		}
	}
	var want []int
	for r := 0; r < fact.Len(); r++ {
		row := fact.Row(r)
		if roadBikes[row[fact.Schema().ColumnIndex("ProductKey")]] &&
			row[fact.Schema().ColumnIndex("SalesKey")].AsFloat() > 54000 {
			want = append(want, r)
		}
	}
	if len(want) == 0 {
		t.Fatal("SalesKey>54000 subspace is empty — bad fixture")
	}
	if len(rows) != len(want) {
		t.Fatalf("planned drill %d rows, oracle %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Fatalf("row mismatch at %d: %d vs %d", i, rows[i], want[i])
		}
	}

	segments := int64(relation.NumSegments(fact.Len(), fact.SegmentSize()))
	if segments != 8 {
		t.Fatalf("AW_ONLINE has %d segments, fixture assumes 8", segments)
	}
	if skipped := tr.Count(telemetry.SegmentsSkippedZone); 2*skipped < segments {
		t.Fatalf("SalesKey>54000 zone-skipped %d of %d segments — zone maps are not skipping", skipped, segments)
	}
	if tr.Count(telemetry.SegmentsScanned) == 0 {
		t.Fatal("no segment was scanned")
	}
}
