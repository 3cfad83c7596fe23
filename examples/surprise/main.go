// Surprise hunting: the paper's first OLAP application (§1, §5.2.1).
//
// An analyst investigating mountain-bike sales in California wants to
// know which group-by attributes expose *exceptions* — partitions of the
// sub-dataspace whose aggregate distribution deviates most from the
// rolled-up background trend (Equation 1: the negated correlation). The
// facets surface, for every dimension, the attributes and instances where
// California mountain-bike sales behave unlike the wider market.
//
// Run with:
//
//	go run ./examples/surprise
package main

import (
	"context"
	"fmt"
	"math"

	"kdap"
)

func main() {
	ctx := context.Background()
	engine := kdap.NewEngine(kdap.AWOnline())

	nets, err := engine.DifferentiateCtx(ctx, "California Mountain Bikes")
	if err != nil {
		panic(err)
	}
	fmt.Println("Top interpretations:")
	fmt.Print(kdap.RenderStarNets(nets, 3))

	opts := kdap.DefaultExploreOptions()
	opts.Mode = kdap.Surprise
	opts.TopKAttrs = 2
	facets, err := engine.ExploreCtx(ctx, nets[0], opts)
	if err != nil {
		panic(err)
	}

	fmt.Printf("\nSub-dataspace: %d facts, revenue %.2f\n",
		facets.SubspaceSize, facets.TotalAggregate)
	fmt.Println("\nMost surprising partitions per dimension (Eq. 1, surprise mode):")
	for _, d := range facets.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted {
				continue
			}
			fmt.Printf("  %-10s %-20s score %+.4f\n", d.Dimension, a.Attr.Attr, a.Score)
		}
	}

	// Pull out the single most deviant instance across all facets: the
	// concrete "sales for X are way off the trend" finding.
	var bestDim, bestAttr, bestInst string
	var bestScore float64
	for _, d := range facets.Dimensions {
		for _, a := range d.Attributes {
			for _, inst := range a.Instances {
				if math.Abs(inst.Score) > math.Abs(bestScore) {
					bestDim, bestAttr, bestInst = d.Dimension, a.Attr.Attr, inst.Label
					bestScore = inst.Score
				}
			}
		}
	}
	direction := "above"
	if bestScore < 0 {
		direction = "below"
	}
	fmt.Printf("\nBiggest exception: %s / %s = %q — its share of California "+
		"mountain-bike revenue is %.1f points %s its share in the roll-up space.\n",
		bestDim, bestAttr, bestInst, math.Abs(bestScore)*100, direction)
}
