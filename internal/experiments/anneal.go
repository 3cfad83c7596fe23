package experiments

import (
	"context"
	"fmt"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/schemagraph"
)

// AnnealCase is one subfigure of Figure 7/8: a keyword-defined
// sub-dataspace, a numeric attribute domain to partition, and the
// roll-up used as the background space.
type AnnealCase struct {
	Label string
	// Online selects AW_ONLINE (true) or AW_RESELLER (false).
	Online bool
	// Query is the keyword query defining the sub-dataspace.
	Query string
	// Attr is the numeric attribute whose domain is merged, with Role
	// its join-path role.
	Attr schemagraph.AttrRef
	Role string
}

// Fig7Cases returns the paper's three merge scenarios: (a) "France
// Clothing" / Yearly Income, (b) "France Accessories" / Yearly Income,
// (c) "British Columbia" / Number of Employees (reseller database).
func Fig7Cases() []AnnealCase {
	income := schemagraph.AttrRef{Table: "DimCustomer", Attr: "YearlyIncome"}
	return []AnnealCase{
		{Label: "France Clothing / Yearly Income", Online: true, Query: "France Clothing", Attr: income, Role: "Customer"},
		{Label: "France Accessories / Yearly Income", Online: true, Query: "France Accessories", Attr: income, Role: "Customer"},
		{Label: "British Columbia / Number of Employees", Online: false, Query: "British Columbia",
			Attr: schemagraph.AttrRef{Table: "DimReseller", Attr: "NumberOfEmployees"}, Role: "Reseller"},
	}
}

// AnnealCurveResult is one convergence line: error percentage (merged vs
// basic-interval correlation) per iteration count, for one target
// interval count K.
type AnnealCurveResult struct {
	Label      string
	K          int
	Iterations []int
	ErrPct     []float64
}

// DefaultAnnealIterations is the x axis of Figures 7/8.
var DefaultAnnealIterations = []int{0, 10, 25, 50, 100, 200, 300, 500}

// annealSeries materializes the basic-interval series (x = sub-dataspace,
// y = roll-up space) for an anneal case: the sub-dataspace comes from the
// top-ranked star net of the case's keyword query, the background from
// rolling up every hit group (the engine's §5.2.1 construction).
func annealSeries(c AnnealCase, buckets int) (x, y []float64, err error) {
	var wh *dataset.Warehouse
	if c.Online {
		wh = dataset.AWOnline()
	} else {
		wh = dataset.AWReseller()
	}
	e := Engine(wh)
	ctx := context.Background()
	nets, err := e.DifferentiateCtx(ctx, c.Query)
	if err != nil {
		return nil, nil, err
	}
	if len(nets) == 0 {
		return nil, nil, fmt.Errorf("%s: no star nets for %q", c.Label, c.Query)
	}
	sn := nets[0]
	ex := e.Executor()
	rows, err := e.SubspaceRowsCtx(ctx, sn)
	if err != nil {
		return nil, nil, err
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("%s: empty subspace", c.Label)
	}
	bgRows, err := RollupRows(ctx, e, sn)
	if err != nil {
		return nil, nil, err
	}
	if len(bgRows) == 0 {
		return nil, nil, fmt.Errorf("%s: empty roll-up space", c.Label)
	}
	attrPath, ok := wh.Graph.PathFromFact(c.Attr.Table, c.Role)
	if !ok {
		return nil, nil, fmt.Errorf("%s: no path from %s", c.Label, c.Attr.Table)
	}
	local, err := ex.NumericSeriesCtx(ctx, rows, c.Attr.Attr, attrPath, e.Measure())
	if err != nil {
		return nil, nil, err
	}
	bg, err := ex.NumericSeriesCtx(ctx, bgRows, c.Attr.Attr, attrPath, e.Measure())
	if err != nil {
		return nil, nil, err
	}
	iv := kdapcore.MakeIntervals(local, buckets)
	return iv.AggregateSeries(local), iv.AggregateSeries(bg), nil
}

// Fig7 runs one anneal case for the given K values, sampling the error at
// each iteration budget. The paper varies K from 5 to 7 and runs to 500
// iterations with 40 basic intervals.
func Fig7(c AnnealCase, ks []int, iterations []int) ([]AnnealCurveResult, error) {
	x, y, err := annealSeries(c, 40)
	if err != nil {
		return nil, err
	}
	var out []AnnealCurveResult
	for _, k := range ks {
		r := AnnealCurveResult{Label: c.Label, K: k, Iterations: iterations}
		maxN := iterations[len(iterations)-1]
		res := kdapcore.MergeIntervals(x, y, kdapcore.AnnealConfig{
			K: k, L: 4, N: maxN, AcceptProb: 0.25, Seed: 7,
		})
		for _, n := range iterations {
			r.ErrPct = append(r.ErrPct, res.History[n])
		}
		out = append(out, r)
	}
	return out, nil
}

// RollupRows computes the union background space of a star net: the fact
// rows of the sub-dataspace generalized along every hitted dimension
// (taking the first successful roll-up, which is what the anneal figures
// need as their single background series). The error is a cancelled
// scan.
func RollupRows(ctx context.Context, e *kdapcore.Engine, sn *kdapcore.StarNet) ([]int, error) {
	// Re-derive the engine's roll-up construction through the public
	// surface: generalize each hit group via its hierarchy parent.
	g := e.Graph()
	ex := e.Executor()
	base := sn.Constraints()
	for i := range base {
		attr := schemagraph.AttrRef{Table: base[i].Table, Attr: base[i].Attr}
		parent, dim, ok := g.HierarchyParent(attr)
		var cs []olap.Constraint
		cs = append(cs, base[:i]...)
		if ok {
			hitTable := g.DB().Table(base[i].Table)
			hitRows := hitTable.LookupIn(base[i].Attr, base[i].Values)
			inner := g.InnerPathsWithin(base[i].Table, parent.Table, dim)
			if len(inner) == 0 {
				continue
			}
			parentVals, err := ex.DimValues(ctx, hitRows, inner[0], parent.Attr)
			if err != nil {
				return nil, err
			}
			ppath, pok := g.PathFromFact(parent.Table, base[i].Path.Role)
			if !pok || len(parentVals) == 0 {
				continue
			}
			cs = append(cs, olap.Constraint{Table: parent.Table, Attr: parent.Attr, Values: parentVals, Path: ppath})
		}
		cs = append(cs, base[i+1:]...)
		rows, err := ex.FactRowsCtx(ctx, cs)
		if err != nil || len(rows) > 0 {
			return rows, err
		}
	}
	return nil, nil
}
