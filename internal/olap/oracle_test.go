package olap

import (
	"context"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// The differential oracle: row-at-a-time, map-accumulating reference
// implementations of GroupByCtx and AggregateCtx that walk boxed fact
// rows through the measure's Eval. Every columnar kernel result is
// checked against them — bit for bit on the serial path, to merge
// precision on the striped one.

// groupByRef is the reference group-by: the same fact→dimension mapping,
// NULL and unlinked rows dropped, one aggState per attribute value.
func groupByRef(ex *Executor, rows []int, attr string, path schemagraph.JoinPath, m Measure, agg Agg) map[relation.Value]float64 {
	dimTable := ex.g.DB().Table(path.Source)
	f2d := ex.factToDim(path)
	states := make(map[relation.Value]*aggState)
	var row []relation.Value
	for _, r := range rows {
		d := f2d[r]
		if d < 0 {
			continue
		}
		v := dimTable.Value(int(d), attr)
		if v.IsNull() {
			continue
		}
		st := states[v]
		if st == nil {
			s := newAggState()
			st = &s
			states[v] = st
		}
		row = ex.fact.RowInto(row, r)
		st.add(m.Eval(row))
	}
	out := make(map[relation.Value]float64, len(states))
	for v, st := range states {
		out[v] = st.final(agg)
	}
	return out
}

// aggregateRef is the reference aggregate over fact rows.
func aggregateRef(ex *Executor, rows []int, m Measure, agg Agg) float64 {
	st := newAggState()
	var row []relation.Value
	for _, r := range rows {
		row = ex.fact.RowInto(row, r)
		st.add(m.Eval(row))
	}
	return st.final(agg)
}

// pivotRef is the reference pivot: each (row value, column value) cell
// aggregates the facts linked to both, in row order.
func pivotRef(ex *Executor, rows []int, rowAttr string, rowPath schemagraph.JoinPath, colAttr string, colPath schemagraph.JoinPath, m Measure, agg Agg) map[[2]relation.Value]float64 {
	rowTable, colTable := ex.g.DB().Table(rowPath.Source), ex.g.DB().Table(colPath.Source)
	rf2d, cf2d := ex.factToDim(rowPath), ex.factToDim(colPath)
	states := make(map[[2]relation.Value]*aggState)
	var row []relation.Value
	for _, r := range rows {
		if rf2d[r] < 0 || cf2d[r] < 0 {
			continue
		}
		k := [2]relation.Value{rowTable.Value(int(rf2d[r]), rowAttr), colTable.Value(int(cf2d[r]), colAttr)}
		if k[0].IsNull() || k[1].IsNull() {
			continue
		}
		st := states[k]
		if st == nil {
			s := newAggState()
			st = &s
			states[k] = st
		}
		row = ex.fact.RowInto(row, r)
		st.add(m.Eval(row))
	}
	out := make(map[[2]relation.Value]float64, len(states))
	for k, st := range states {
		out[k] = st.final(agg)
	}
	return out
}

// Shorthands for the executor's entry points under a live context,
// failing the test on an error.

func mustFactRows(t testing.TB, ex *Executor, cs []Constraint) []int {
	t.Helper()
	rows, err := ex.FactRowsCtx(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func mustGroupBy(t testing.TB, ex *Executor, rows []int, attr string, path schemagraph.JoinPath, m Measure, agg Agg) map[relation.Value]float64 {
	t.Helper()
	out, err := ex.GroupByCtx(context.Background(), rows, attr, path, m, agg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustAggregate(t testing.TB, ex *Executor, rows []int, m Measure, agg Agg) float64 {
	t.Helper()
	v, err := ex.AggregateCtx(context.Background(), rows, m, agg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustSeries(t testing.TB, ex *Executor, rows []int, attr string, path schemagraph.JoinPath, m Measure) []ValueMeasure {
	t.Helper()
	out, err := ex.NumericSeriesCtx(context.Background(), rows, attr, path, m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mustFilter filters under an opaque predicate: the bound interval is
// the whole line, so only all-NULL segments are skipped.
func mustFilter(t testing.TB, ex *Executor, rows []int, attr string, path schemagraph.JoinPath, pred func(float64) bool) []int {
	t.Helper()
	out, err := ex.FilterRowsNumericBoundCtx(context.Background(), rows, attr, path, negInf, posInf, pred)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustPivot(t testing.TB, ex *Executor, rows []int, rowAttr string, rowPath schemagraph.JoinPath, colAttr string, colPath schemagraph.JoinPath, m Measure, agg Agg) *PivotTable {
	t.Helper()
	pt, err := ex.Pivot(context.Background(), rows, rowAttr, rowPath, colAttr, colPath, m, agg)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}
