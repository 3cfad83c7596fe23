package experiments

import (
	"context"
	"fmt"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/stats"
)

// BucketCase is one line of Figure 5 or 6: a numeric group-by attribute
// evaluated over every roll-up case of one hierarchy step (e.g.
// YearlyIncome over every StateProvince→Country pair).
type BucketCase struct {
	// Label names the line as in the figure legend.
	Label string
	// Attr is the numeric candidate group-by attribute and Role its
	// join-path role from the fact table.
	Attr schemagraph.AttrRef
	Role string
	// HitLevel is the hierarchy level whose instances define the
	// sub-dataspaces; each instance rolls up to its parent level.
	HitLevel schemagraph.AttrRef
	HitRole  string
}

// BucketSweepResult is one figure line: average correlation error (vs the
// per-distinct-value ground truth of §6.4) per bucket count.
type BucketSweepResult struct {
	Label string
	// Buckets holds the swept basic-interval counts (the x axis).
	Buckets []int
	// ErrPct[i] is the error percentage at Buckets[i], averaged over all
	// evaluated roll-up cases.
	ErrPct []float64
	// Cases is the number of roll-up cases that entered the average.
	Cases int
}

// Fig5Cases returns the four AW_ONLINE lines of Figure 5: YearlyIncome
// and DealerPrice, each under the StateProvince→Country and the
// Subcategory→Category roll-up.
func Fig5Cases() []BucketCase {
	income := schemagraph.AttrRef{Table: "DimCustomer", Attr: "YearlyIncome"}
	price := schemagraph.AttrRef{Table: "DimProduct", Attr: "DealerPrice"}
	state := schemagraph.AttrRef{Table: "DimGeography", Attr: "StateProvinceName"}
	subcat := schemagraph.AttrRef{Table: "DimProductSubcategory", Attr: "SubcategoryName"}
	return []BucketCase{
		{Label: "YearlyIncome (State→Country)", Attr: income, Role: "Customer", HitLevel: state, HitRole: "Customer"},
		{Label: "YearlyIncome (Subcat→Category)", Attr: income, Role: "Customer", HitLevel: subcat, HitRole: "Product"},
		{Label: "DealerPrice (State→Country)", Attr: price, Role: "Product", HitLevel: state, HitRole: "Customer"},
		{Label: "DealerPrice (Subcat→Category)", Attr: price, Role: "Product", HitLevel: subcat, HitRole: "Product"},
	}
}

// Fig6Cases returns the three AW_RESELLER lines of Figure 6: AnnualSales,
// AnnualRevenue, and NumberOfEmployees under the Subcategory→Category
// roll-up.
func Fig6Cases() []BucketCase {
	subcat := schemagraph.AttrRef{Table: "DimProductSubcategory", Attr: "SubcategoryName"}
	mk := func(attr, label string) BucketCase {
		return BucketCase{
			Label:    label,
			Attr:     schemagraph.AttrRef{Table: "DimReseller", Attr: attr},
			Role:     "Reseller",
			HitLevel: subcat,
			HitRole:  "Product",
		}
	}
	return []BucketCase{
		mk("AnnualSales", "AnnualSales (Subcat→Category)"),
		mk("AnnualRevenue", "AnnualRevenue (Subcat→Category)"),
		mk("NumberOfEmployees", "NumberOfEmployees (Subcat→Category)"),
	}
}

// DefaultBucketSweep is the bucket-count x axis of Figures 5 and 6.
var DefaultBucketSweep = []int{5, 10, 20, 40, 80, 160}

// rollupCase is one (sub-dataspace, roll-up space) pair of fact value
// series for a numeric attribute.
type rollupCase struct {
	local []olap.ValueMeasure
	bg    []olap.ValueMeasure
}

// collectRollupCases materializes, for every instance of the hit level
// with a hierarchy parent, the numeric series of the sub-dataspace and of
// its rolled-up background space.
func collectRollupCases(wh *dataset.Warehouse, e *kdapcore.Engine, c BucketCase) ([]rollupCase, error) {
	g := wh.Graph
	ex := e.Executor()
	hitPath, ok := g.PathFromFact(c.HitLevel.Table, c.HitRole)
	if !ok {
		return nil, fmt.Errorf("no path from %s", c.HitLevel.Table)
	}
	attrPath, ok := g.PathFromFact(c.Attr.Table, c.Role)
	if !ok {
		return nil, fmt.Errorf("no path from %s", c.Attr.Table)
	}
	parent, dim, ok := g.HierarchyParent(c.HitLevel)
	if !ok {
		return nil, fmt.Errorf("%s has no hierarchy parent", c.HitLevel)
	}
	parentPath, ok := g.PathFromFact(parent.Table, c.HitRole)
	if !ok {
		return nil, fmt.Errorf("no path from %s", parent.Table)
	}
	innerPaths := g.InnerPathsWithin(c.HitLevel.Table, parent.Table, dim)
	if len(innerPaths) == 0 {
		return nil, fmt.Errorf("no inner path %s → %s", c.HitLevel.Table, parent.Table)
	}

	hitTable := wh.DB.Table(c.HitLevel.Table)
	m := e.Measure()
	ctx := context.Background()
	var out []rollupCase
	for _, v := range hitTable.DistinctValues(c.HitLevel.Attr) {
		rows, err := ex.FactRowsCtx(ctx, []olap.Constraint{{
			Table: c.HitLevel.Table, Attr: c.HitLevel.Attr,
			Values: []relation.Value{v}, Path: hitPath,
		}})
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			continue
		}
		hitRows := hitTable.Lookup(c.HitLevel.Attr, v)
		parentVals, err := ex.DimValues(ctx, hitRows, innerPaths[0], parent.Attr)
		if err != nil {
			return nil, err
		}
		if len(parentVals) == 0 {
			continue
		}
		bgRows, err := ex.FactRowsCtx(ctx, []olap.Constraint{{
			Table: parent.Table, Attr: parent.Attr, Values: parentVals, Path: parentPath,
		}})
		if err != nil {
			return nil, err
		}
		local, err := ex.NumericSeriesCtx(ctx, rows, c.Attr.Attr, attrPath, m)
		if err != nil {
			return nil, err
		}
		bg, err := ex.NumericSeriesCtx(ctx, bgRows, c.Attr.Attr, attrPath, m)
		if err != nil {
			return nil, err
		}
		if len(local) == 0 || len(bg) == 0 {
			continue
		}
		out = append(out, rollupCase{local: local, bg: bg})
	}
	return out, nil
}

// BucketSweep runs the §6.4 protocol for one figure line: for every
// roll-up case, compute the ground-truth correlation (one bucket per
// distinct sub-dataspace value) and the correlation at each swept bucket
// count; report the average error percentage. Degenerate cases — fewer
// than two distinct values, or a near-zero ground-truth correlation for
// which relative error is undefined — are skipped, mirroring the paper's
// averaging over meaningful roll-up cases.
func BucketSweep(wh *dataset.Warehouse, e *kdapcore.Engine, c BucketCase, buckets []int) (BucketSweepResult, error) {
	cases, err := collectRollupCases(wh, e, c)
	if err != nil {
		return BucketSweepResult{}, err
	}
	res := BucketSweepResult{Label: c.Label, Buckets: buckets, ErrPct: make([]float64, len(buckets))}
	for _, rc := range cases {
		gtIv := kdapcore.MakeDistinctIntervals(rc.local)
		if gtIv.Buckets() < 2 {
			continue
		}
		gt := stats.Pearson(gtIv.AggregateSeries(rc.local), gtIv.AggregateSeries(rc.bg))
		if gt > -0.1 && gt < 0.1 {
			continue
		}
		res.Cases++
		for i, b := range buckets {
			iv := kdapcore.MakeIntervals(rc.local, b)
			xo, yo := kdapcore.OccupiedSeries(iv.AggregateSeries(rc.local), iv.AggregateSeries(rc.bg))
			corr := stats.Pearson(xo, yo)
			res.ErrPct[i] += stats.AbsErrPct(corr, gt)
		}
	}
	if res.Cases == 0 {
		return res, fmt.Errorf("%s: no evaluable roll-up cases", c.Label)
	}
	for i := range res.ErrPct {
		res.ErrPct[i] /= float64(res.Cases)
	}
	return res, nil
}
