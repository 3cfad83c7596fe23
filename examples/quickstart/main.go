// Quickstart: the paper's running example end to end.
//
// A business analyst types "Columbus LCD" against the EBiz e-commerce
// warehouse (Figure 2 of the paper). The keyword "Columbus" is ambiguous
// — a city (with three different join paths: store location, buyer
// location, seller location), a holiday ("Columbus Day"), even a customer
// surname — and "LCD" matches product groups and product names at
// different hierarchy levels. KDAP enumerates the interpretations, ranks
// them, and then explores the one the analyst picks, building dynamic
// facets over the aggregated sub-dataspace.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"strings"

	"kdap"
)

func main() {
	ctx := context.Background()
	wh := kdap.EBiz()
	engine := kdap.NewEngine(wh)

	fmt.Println("=== Differentiate: interpretations of \"Columbus LCD\" ===")
	nets, err := engine.DifferentiateCtx(ctx, "Columbus LCD")
	if err != nil {
		panic(err)
	}
	fmt.Print(kdap.RenderStarNets(nets, 10))

	// The analyst recognizes the intended reading: LCD product sales in
	// stores located in Columbus (the city, via the Store join path).
	var chosen *kdap.StarNet
	for _, sn := range nets {
		sig := sn.DomainSignature()
		if strings.Contains(sig, "LOC.City[Store]") && strings.Contains(sig, "PGROUP.GroupName") {
			chosen = sn
			break
		}
	}
	if chosen == nil {
		chosen = nets[0]
	}
	fmt.Printf("\n=== Explore: %s ===\n", chosen.DomainSignature())

	facets, err := engine.ExploreCtx(ctx, chosen, kdap.DefaultExploreOptions())
	if err != nil {
		panic(err)
	}
	fmt.Print(kdap.RenderFacets(facets))

	// Each facet instance is a drill-down entry point: narrow to the most
	// surprising category of the first categorical facet and re-explore.
	for _, d := range facets.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric || a.Promoted || len(a.Instances) == 0 {
				continue
			}
			inst := a.Instances[0]
			fmt.Printf("\n=== Drill down: %s = %s ===\n", a.Attr.Attr, inst.Label)
			drilled, err := engine.Drill(chosen, a.Attr, a.Role, inst.Value)
			if err != nil {
				panic(err)
			}
			sub, err := engine.ExploreCtx(ctx, drilled, kdap.DefaultExploreOptions())
			if err != nil {
				fmt.Printf("(drill produced an empty subspace: %v)\n", err)
				return
			}
			fmt.Printf("narrowed to %d fact rows, aggregate %.2f\n",
				sub.SubspaceSize, sub.TotalAggregate)
			return
		}
	}
}
