// Bellwether search: the paper's second OLAP application (§1, after Chen
// et al., VLDB 2006).
//
// Here the analyst wants the opposite of a surprise: local regions whose
// aggregates *track* the global trend, so that a cheap local measurement
// predicts the expensive global one. In bellwether mode, Equation 1 keeps
// the correlation's sign, so the facets rank highest the group-by
// attributes whose sub-dataspace distribution is most correlated with its
// roll-up — e.g. "reseller sales of touring bikes in one state move with
// nationwide bike sales".
//
// Run with:
//
//	go run ./examples/bellwether
package main

import (
	"context"
	"fmt"

	"kdap"
)

func main() {
	ctx := context.Background()
	engine := kdap.NewEngine(kdap.AWReseller())

	nets, err := engine.DifferentiateCtx(ctx, "Touring Bikes")
	if err != nil {
		panic(err)
	}
	if len(nets) == 0 {
		panic("no interpretations")
	}
	fmt.Println("Interpretation:", nets[0].DomainSignature())

	opts := kdap.DefaultExploreOptions()
	opts.Mode = kdap.Bellwether
	opts.TopKAttrs = 3
	facets, err := engine.ExploreCtx(ctx, nets[0], opts)
	if err != nil {
		panic(err)
	}

	fmt.Printf("Sub-dataspace: %d reseller-sales facts, revenue %.2f\n\n",
		facets.SubspaceSize, facets.TotalAggregate)
	fmt.Println("Bellwether facets (higher score = local distribution tracks the roll-up):")
	for _, d := range facets.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted {
				continue
			}
			fmt.Printf("  %-10s %-20s corr %+.4f\n", d.Dimension, a.Attr.Attr, a.Score)
			// In bellwether mode instances rank by contribution: the
			// biggest local regions a analyst would instrument first.
			for i, inst := range a.Instances {
				if i >= 3 {
					break
				}
				fmt.Printf("      %-28s %14.2f\n", inst.Label, inst.Aggregate)
			}
		}
	}

	fmt.Println("\nCompare with surprise mode (same subspace, negated correlation):")
	opts.Mode = kdap.Surprise
	sf, err := engine.ExploreCtx(ctx, nets[0], opts)
	if err != nil {
		panic(err)
	}
	for _, d := range sf.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted {
				continue
			}
			fmt.Printf("  %-10s %-20s score %+.4f\n", d.Dimension, a.Attr.Attr, a.Score)
		}
	}
}
