// Discovery: batch surprise scanning without a keyword query.
//
// The paper's explore phase needs the analyst to name a subspace first.
// This example inverts the loop (discovery-driven exploration in the
// spirit of Sarawagi et al., which the paper builds its interestingness
// notion on): scan every instance of a hierarchy level, score each
// induced subspace by its most surprising group-by partition, and report
// where in the warehouse the anomalies live — then write the warehouse
// to a directory and prove the reopened copy answers identically.
//
// Run with:
//
//	go run ./examples/discovery
package main

import (
	"context"
	"fmt"
	"os"

	"kdap"
)

func main() {
	ctx := context.Background()
	wh := kdap.EBiz()
	engine := kdap.NewEngine(wh)

	fmt.Println("=== Most surprising product groups (EBiz) ===")
	groups, err := engine.Discover(ctx, kdap.AttrRef{Table: "PGROUP", Attr: "GroupName"}, "Product", kdap.Surprise, 5)
	if err != nil {
		panic(err)
	}
	for i, d := range groups {
		fmt.Printf("%d. %-22s %6d facts  revenue %12.2f  most surprising along %s (score %+.3f)\n",
			i+1, d.Value.Text(), d.Rows, d.Aggregate, d.BestAttr, d.Score)
	}

	fmt.Println("\n=== Most surprising store cities ===")
	cities, err := engine.Discover(ctx, kdap.AttrRef{Table: "LOC", Attr: "City"}, "Store", kdap.Surprise, 5)
	if err != nil {
		panic(err)
	}
	for i, d := range cities {
		fmt.Printf("%d. %-22s %6d facts  revenue %12.2f  most surprising along %s (score %+.3f)\n",
			i+1, d.Value.Text(), d.Rows, d.Aggregate, d.BestAttr, d.Score)
	}

	// Write the warehouse to a directory and verify the reopened copy
	// agrees.
	dir, err := os.MkdirTemp("", "discovery-warehouse-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	if err := kdap.SaveWarehouse(dir, wh); err != nil {
		panic(err)
	}
	reloaded, store, err := kdap.OpenWarehouse(dir)
	if err != nil {
		panic(err)
	}
	defer store.Close()
	again, err := kdap.NewEngine(reloaded).Discover(ctx,
		kdap.AttrRef{Table: "PGROUP", Attr: "GroupName"}, "Product", kdap.Surprise, 5)
	if err != nil {
		panic(err)
	}
	same := len(again) == len(groups)
	for i := range groups {
		if same && (groups[i].Value != again[i].Value || groups[i].Score != again[i].Score) {
			same = false
		}
	}
	fmt.Printf("\nReopened warehouse reproduces the discovery ranking: %v\n", same)
}
