package olap

// Cancellation coverage for the executor's entry points: a cancelled
// context surfaces context.Canceled from every one that scans or walks.

import (
	"context"
	"errors"
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
		"FilterRowsNumericBoundCtx": func() error {
			_, err := ex.FilterRowsNumericBoundCtx(ctx, rows, "UnitPrice", pathTo(t, "TRANSITEM", ""),
				0, posInf, func(v float64) bool { return v > 0 })
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
