package kdap_test

import (
	"context"
	"fmt"
	"strings"

	"kdap"
)

// The two-phase KDAP loop: differentiate a keyword query into ranked
// interpretations, then explore the chosen one.
func ExampleNewEngine() {
	engine := kdap.NewEngine(kdap.EBiz())
	nets, err := engine.DifferentiateCtx(context.Background(), "San Jose")
	if err != nil {
		panic(err)
	}
	top := nets[0]
	fmt.Println("interpretation:", top.DomainSignature())
	fmt.Println("hit:", top.Groups[0].Group.Hits[0].Value.Text())
	// Output:
	// interpretation: LOC.City[Store]
	// hit: San Jose
}

// Numeric predicates mix with keywords (the §7 measure extension).
func ExampleEngine_DifferentiateCtx_numericPredicate() {
	engine := kdap.NewEngine(kdap.EBiz())
	nets, err := engine.DifferentiateCtx(context.Background(), "Projectors UnitPrice>1000")
	if err != nil {
		panic(err)
	}
	fmt.Println(nets[0].Filters[0].Raw)
	// Output:
	// UnitPrice>1000
}

// ExploreCtx builds the dynamic facets of a sub-dataspace; promoted hit
// attributes come first in their dimension.
func ExampleEngine_ExploreCtx() {
	engine := kdap.NewEngine(kdap.EBiz())
	nets, _ := engine.DifferentiateCtx(context.Background(), "Projectors")
	facets, err := engine.ExploreCtx(context.Background(), nets[0], kdap.DefaultExploreOptions())
	if err != nil {
		panic(err)
	}
	for _, d := range facets.Dimensions {
		if d.Hitted {
			fmt.Println("hitted dimension:", d.Dimension)
			fmt.Println("promoted attribute:", d.Attributes[0].Attr.Attr)
		}
	}
	// Output:
	// hitted dimension: Product
	// promoted attribute: ClassTitle
}

// SQL renders an interpretation as the query it stands for.
func ExampleStarNet_SQL() {
	engine := kdap.NewEngine(kdap.EBiz())
	nets, _ := engine.DifferentiateCtx(context.Background(), "Projectors")
	sql := nets[0].SQL(engine.Measure(), engine.Agg(), engine.Graph().FactTable())
	fmt.Println(strings.Split(sql, "\n")[0])
	// Output:
	// SELECT SUM("SalesRevenue")
}

// MergeIntervals is Algorithm 2: merge basic intervals into display
// ranges while preserving the correlation against the roll-up series.
func ExampleMergeIntervals() {
	x := []float64{10, 12, 11, 50, 52, 51, 90, 91, 92}
	y := []float64{20, 22, 21, 95, 99, 97, 180, 183, 181}
	res := kdap.MergeIntervals(x, y, kdap.DefaultAnnealConfig())
	fmt.Printf("ranges: %d, error below 5%%: %v\n", len(res.Splits)+1, res.ErrPct < 5)
	// Output:
	// ranges: 6, error below 5%: true
}
