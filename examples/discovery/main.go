// Discovery: batch surprise scanning without a keyword query.
//
// The paper's explore phase needs the analyst to name a subspace first.
// This example inverts the loop (discovery-driven exploration in the
// spirit of Sarawagi et al., which the paper builds its interestingness
// notion on): scan every instance of a hierarchy level, score each
// induced subspace by its most surprising group-by partition, and report
// where in the warehouse the anomalies live — then snapshot the warehouse
// to disk and prove the reloaded copy answers identically.
//
// Run with:
//
//	go run ./examples/discovery
package main

import (
	"bytes"
	"context"
	"fmt"

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

	// Snapshot the warehouse and verify the reloaded copy agrees.
	var buf bytes.Buffer
	if err := kdap.SaveWarehouse(&buf, wh); err != nil {
		panic(err)
	}
	fmt.Printf("\nSnapshot size: %d KiB\n", buf.Len()/1024)
	reloaded, err := kdap.LoadWarehouse(&buf)
	if err != nil {
		panic(err)
	}
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
	fmt.Printf("Reloaded warehouse reproduces the discovery ranking: %v\n", same)
}
