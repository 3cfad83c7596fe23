// CSV mart: KDAP over data files on disk — no Go code for the schema.
//
// The data/ directory holds three CSV files and a manifest.json declaring
// tables, keys, dimensions, and hierarchies (see dataset.Manifest in
// internal/dataset for the format). This example loads the directory, runs a keyword query with a
// genuinely ambiguous keyword ("Mystery" is a genre; "Paris" a city), and
// explores the chosen interpretation.
//
// Run with:
//
//	go run ./examples/csvmart
//
// With -segments the loaded mart is written to a warehouse directory
// and served from it, fact table paged from disk — same answers — and
// the run reports the store's paging counters at the end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"kdap"
)

func main() {
	ctx := context.Background()
	segments := flag.Bool("segments", false, "write the mart to a warehouse directory and serve its fact table paged")
	flag.Parse()

	// Resolve data/ relative to this example's source directory when run
	// via `go run ./examples/csvmart`, falling back to the working
	// directory.
	dir := filepath.Join("examples", "csvmart", "data")
	if _, err := os.Stat(dir); err != nil {
		dir = "data"
	}
	wh, err := kdap.LoadCSVWarehouse(dir)
	if err != nil {
		panic(err)
	}
	var store *kdap.SegmentStore
	if *segments {
		whDir, err := os.MkdirTemp("", "csvmart-warehouse-")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(whDir)
		if err := kdap.SaveWarehouse(whDir, wh); err != nil {
			panic(err)
		}
		if wh, store, err = kdap.OpenWarehouse(whDir); err != nil {
			panic(err)
		}
		defer store.Close()
	}
	fmt.Printf("loaded %s: %d tables, %d rows\n", wh.DB.Name(), wh.DB.Stats().Tables, wh.DB.Stats().Rows)

	fact := wh.DB.Table("Orders")
	copies := fact.Schema().ColumnIndex("Copies")
	price := fact.Schema().ColumnIndex("Price")
	revenue := kdap.Measure{Name: "Revenue", Eval: func(row []kdap.Value) float64 {
		return row[copies].AsFloat() * row[price].AsFloat()
	}}
	engine := kdap.NewEngineWithMeasure(wh, revenue, kdap.Sum)

	fmt.Println("\n=== \"Mystery Paris\" ===")
	nets, err := engine.DifferentiateCtx(ctx, "Mystery Paris")
	if err != nil {
		panic(err)
	}
	fmt.Print(kdap.RenderStarNets(nets, 5))

	facets, err := engine.ExploreCtx(ctx, nets[0], kdap.DefaultExploreOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println()
	fmt.Print(kdap.RenderFacets(facets))

	fmt.Println("\nSQL for the chosen interpretation:")
	fmt.Println(nets[0].SQL(engine.Measure(), engine.Agg(), "Orders"))

	if store != nil {
		st := store.Stats()
		fmt.Printf("\nsegment store: %d cache hits, %d paged in, %d evicted, %d skipped (bloom), %d skipped (zone)\n",
			st.Resident, st.PagedIn, st.Evicted, st.SkippedBloom, st.SkippedZone)
	}
}
