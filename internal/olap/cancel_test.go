package olap

// Cancellation coverage for the executor's entry points: a cancelled
// context surfaces context.Canceled from every one that scans or walks.

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestCtxVariantsCancel(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	path := pathTo(t, "PGROUP", "")
	rows := mustFactRows(t, ex, nil)
	inner := ebiz.Graph.InnerPathsWithin("PGROUP", "PLINE", ebiz.Graph.Dimension("Product"))[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	calls := map[string]func() error{
		"FactRowsCtx": func() error {
			_, err := ex.FactRowsCtx(ctx, nil)
			return err
		},
		"AggregateCtx": func() error {
			_, err := ex.AggregateCtx(ctx, rows, m, Sum)
			return err
		},
		"GroupByCtx": func() error {
			_, err := ex.GroupByCtx(ctx, rows, "GroupName", path, m, Sum)
			return err
		},
		"NumericSeriesCtx": func() error {
			_, err := ex.NumericSeriesCtx(ctx, rows, "UnitPrice", pathTo(t, "TRANSITEM", ""), m)
			return err
		},
		"FactRowsCtx/range": func() error {
			_, err := ex.FactRowsCtx(ctx, []Constraint{
				{Table: "TRANSITEM", Attr: "UnitPrice", Range: &Interval{Lo: 0, Hi: math.Inf(1), LoOpen: true}},
				{Table: "CUSTOMER", Attr: "Income", Range: &Interval{Lo: 50000, Hi: math.Inf(1)}, Path: pathTo(t, "CUSTOMER", "Buyer")},
			})
			return err
		},
		"Pivot": func() error {
			_, err := ex.Pivot(ctx, rows, "GroupName", path, "State", pathTo(t, "LOC", "Store"), m, Sum)
			return err
		},
		"MapRowsCtx": func() error {
			_, err := ex.MapRowsCtx(ctx, rows, path)
			return err
		},
		"DimValues": func() error {
			_, err := ex.DimValues(ctx, []int{0, 1}, inner, "LineName")
			return err
		},
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}
