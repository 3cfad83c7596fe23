package olap

import (
	"fmt"
	"math"
	"testing"

	"kdap/internal/relation"
)

// The columnar kernels are a pure execution-strategy change: every
// result must match the retained row-at-a-time reference path exactly
// (sequential) or to float-merge precision (parallel).

// sampleRowSets returns row subsets of assorted sizes, including the
// full dataspace and an empty set.
func sampleRowSets(t *testing.T, ex *Executor) [][]int {
	all := mustFactRows(t, ex, nil)
	var every3 []int
	for i := 0; i < len(all); i += 3 {
		every3 = append(every3, all[i])
	}
	return [][]int{nil, all[:1], all[:100], every3, all}
}

func TestGroupByMatchesReference(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	aggs := []Agg{Sum, Count, Avg, Min, Max}
	for _, tc := range []struct{ attr, table, role string }{
		{"GroupName", "PGROUP", "Product"},
		{"State", "LOC", "Store"},
		{"Income", "CUSTOMER", "Buyer"},
	} {
		path := pathTo(t, tc.table, tc.role)
		for _, rows := range sampleRowSets(t, ex) {
			for _, agg := range aggs {
				got := mustGroupBy(t, ex, rows, tc.attr, path, m, agg)
				want := groupByRef(ex, rows, tc.attr, path, m, agg)
				if len(got) != len(want) {
					t.Fatalf("%s/%v: %d groups, want %d", tc.attr, agg, len(got), len(want))
				}
				for k, w := range want {
					g, ok := got[k]
					if !ok {
						t.Fatalf("%s/%v: missing group %v", tc.attr, agg, k)
					}
					// Sequential kernel: identical accumulation order,
					// so bit-for-bit equality (NaN == NaN for Avg of
					// empty states).
					if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("%s/%v group %v: %v, want %v", tc.attr, agg, k, g, w)
					}
				}
			}
		}
	}
}

// CountMeasure reads a column of ones; the dense-code kernel must count
// exactly what the reference's Eval counts.
func TestGroupByEvalFallbackMatchesReference(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	path := pathTo(t, "PGROUP", "Product")
	all := mustFactRows(t, ex, nil)
	got := mustGroupBy(t, ex, all, "GroupName", path, CountMeasure(), Count)
	want := groupByRef(ex, all, "GroupName", path, CountMeasure(), Count)
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("group %v: %v want %v", k, got[k], w)
		}
	}
}

// Every measure form — a column, a product, the count and a hand-built
// Eval literal — on resident storage and on 128-row pages, through each
// kernel that reads a measure, against the row-at-a-time oracle: bit
// for bit on the serial path, to merge precision on the striped one.
func TestMeasureFormsMatchReference(t *testing.T) {
	const n = 3*8192 + 700
	for _, segSize := range []int{0, 128} {
		pm := buildPlanMart(t, n, segSize)
		all := mustFactRows(t, pm.ex, nil)
		var third []int
		for i := 5; i < n; i += 3 {
			third = append(third, i)
		}
		for _, m := range []Measure{
			ColumnMeasure(pm.fact, "Noise"),
			ProductMeasure(pm.fact, "NoiseBySeq", "Noise", "Seq"),
			CountMeasure(),
			{Name: "half", Eval: func(row []relation.Value) float64 { return row[1].AsFloat() / 2 }},
		} {
			for _, rows := range [][]int{all, third, all[8000:8400], nil} {
				exact := len(rows) < parallelRowThreshold
				same := func(got, want float64) bool {
					if math.IsNaN(got) || math.IsNaN(want) {
						return math.IsNaN(got) && math.IsNaN(want)
					}
					return got == want || !exact && math.Abs(got-want) <= 1e-9*(math.Abs(want)+1)
				}
				where := fmt.Sprintf("segSize %d, %s over %d rows", segSize, m.Name, len(rows))
				for _, agg := range []Agg{Sum, Count, Max} {
					if got, want := mustAggregate(t, pm.ex, rows, m, agg), aggregateRef(pm.ex, rows, m, agg); !same(got, want) {
						t.Fatalf("%s: aggregate %v = %v, want %v", where, agg, got, want)
					}
				}
				got, want := mustGroupBy(t, pm.ex, rows, "Name", pm.pathA, m, Sum), groupByRef(pm.ex, rows, "Name", pm.pathA, m, Sum)
				if len(got) != len(want) {
					t.Fatalf("%s: %d groups, want %d", where, len(got), len(want))
				}
				for k, w := range want {
					if g, ok := got[k]; !ok || !same(g, w) {
						t.Fatalf("%s: group %v = %v (present %v), want %v", where, k, g, ok, w)
					}
				}
				pt := mustPivot(t, pm.ex, rows, "Name", pm.pathA, "Label", pm.pathB, m, Sum)
				cells := pivotRef(pm.ex, rows, "Name", pm.pathA, "Label", pm.pathB, m, Sum)
				present := 0
				for i, rk := range pt.RowKeys {
					for j, ck := range pt.ColKeys {
						w, ok := cells[[2]relation.Value{rk, ck}]
						if pt.Present[i][j] != ok || ok && pt.Cells[i][j] != w {
							t.Fatalf("%s: pivot cell (%v, %v) = %v (present %v), want %v (present %v)",
								where, rk, ck, pt.Cells[i][j], pt.Present[i][j], w, ok)
						}
						if ok {
							present++
						}
					}
				}
				if present != len(cells) {
					t.Fatalf("%s: pivot holds %d of %d cells", where, present, len(cells))
				}
			}
		}
	}
}

// forceStriping lowers the striping threshold to n for the rest of the
// test, so the small EBiz fixtures take the striped path.
func forceStriping(t *testing.T, n int) {
	old := parallelRowThreshold
	parallelRowThreshold = n
	t.Cleanup(func() { parallelRowThreshold = old })
}

// Force the chunked parallel kernel and check it against the reference
// (values agree to merge precision; group sets agree exactly) and
// against itself (deterministic across runs).
func TestGroupByParallelKernel(t *testing.T) {
	forceStriping(t, 64)

	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	all := mustFactRows(t, ex, nil)
	path := pathTo(t, "PGROUP", "Product")
	for _, agg := range []Agg{Sum, Count, Avg, Min, Max} {
		got := mustGroupBy(t, ex, all, "GroupName", path, m, agg)
		again := mustGroupBy(t, ex, all, "GroupName", path, m, agg)
		want := groupByRef(ex, all, "GroupName", path, m, agg)
		if len(got) != len(want) {
			t.Fatalf("%v: %d groups, want %d", agg, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("%v: missing group %v", agg, k)
			}
			if math.Abs(g-w) > 1e-9*(math.Abs(w)+1) {
				t.Fatalf("%v group %v: %v, want %v", agg, k, g, w)
			}
			if got[k] != again[k] {
				t.Fatalf("%v group %v: parallel kernel nondeterministic", agg, k)
			}
		}
	}
}

func TestAggregateMatchesReference(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	for _, rows := range sampleRowSets(t, ex) {
		for _, agg := range []Agg{Sum, Count, Avg, Min, Max} {
			got := mustAggregate(t, ex, rows, m, agg)
			want := aggregateRef(ex, rows, m, agg)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("agg %v over %d rows: %v, want %v", agg, len(rows), got, want)
			}
		}
	}
	// Parallel path agrees to merge precision.
	forceStriping(t, 64)
	all := mustFactRows(t, ex, nil)
	for _, agg := range []Agg{Sum, Count, Avg, Min, Max} {
		got := mustAggregate(t, ex, all, m, agg)
		want := aggregateRef(ex, all, m, agg)
		if math.Abs(got-want) > 1e-9*(math.Abs(want)+1) {
			t.Fatalf("parallel agg %v: %v, want %v", agg, got, want)
		}
	}
}

// NumericSeriesCtx through the attribute's code vector, and a range
// constraint on the attribute, must match the boxed row walk.
func TestNumericColumnsMatchRowWalk(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	path := pathTo(t, "CUSTOMER", "Buyer")
	dimTable := ebiz.DB.Table("CUSTOMER")
	ai := dimTable.Schema().ColumnIndex("Income")
	f2d := ex.factToDim(path)
	for _, rows := range sampleRowSets(t, ex) {
		series := mustSeries(t, ex, rows, "Income", path, m)
		var want []ValueMeasure
		for _, r := range rows {
			d := f2d[r]
			if d < 0 {
				continue
			}
			v := dimTable.Row(int(d))[ai]
			if v.IsNull() || !v.Numeric() {
				continue
			}
			want = append(want, ValueMeasure{Value: v.AsFloat(), Measure: m.Eval(ebiz.DB.Table("TRANSITEM").Row(r))})
		}
		if len(series) != len(want) {
			t.Fatalf("series %d entries, want %d", len(series), len(want))
		}
		for i := range want {
			if series[i] != want[i] {
				t.Fatalf("entry %d: %+v, want %+v", i, series[i], want[i])
			}
		}
		pred := func(x float64) bool { return x > 80000 }
		got := mustRange(t, ex, rows, "Income", path, Interval{Lo: 80000, Hi: math.Inf(1), LoOpen: true})
		var wantRows []int
		for _, r := range rows {
			d := f2d[r]
			if d < 0 {
				continue
			}
			v := dimTable.Row(int(d))[ai]
			if v.IsNull() || !v.Numeric() || !pred(v.AsFloat()) {
				continue
			}
			wantRows = append(wantRows, r)
		}
		if len(got) != len(wantRows) {
			t.Fatalf("filter %d rows, want %d", len(got), len(wantRows))
		}
		for i := range wantRows {
			if got[i] != wantRows[i] {
				t.Fatalf("filter row %d: %d, want %d", i, got[i], wantRows[i])
			}
		}
	}
}

// The dict path must drop dangling and NULL links exactly like the
// reference on dirty data.
func TestDirtyDataColumnarMatchesReference(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	m := ColumnMeasure(g.DB().Table("Fact"), "Amount")
	all := mustFactRows(t, ex, nil)
	for _, tbl := range []string{"Prod", "Grp"} {
		path, ok := g.PathFromFact(tbl, "Product")
		if !ok {
			t.Fatalf("no path from %s", tbl)
		}
		attr := map[string]string{"Prod": "Name", "Grp": "GrpName"}[tbl]
		got := mustGroupBy(t, ex, all, attr, path, m, Sum)
		want := groupByRef(ex, all, attr, path, m, Sum)
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", tbl, got, want)
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s group %v: %v, want %v", tbl, k, got[k], w)
			}
		}
	}
}

// A group whose every measure value is NaN must still appear (with the
// aggregation's empty-state value), matching the reference semantics of
// creating the state before evaluating the measure.
func TestGroupByKeepsAllNaNMeasureGroups(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	// A measure that is NaN for Widget A's only linked fact (row 0).
	m := Measure{Name: "picky", Eval: func(row []relation.Value) float64 {
		if row[0].IntVal() == 1 {
			return math.NaN()
		}
		return row[2].AsFloat()
	}}
	path, _ := g.PathFromFact("Prod", "Product")
	all := mustFactRows(t, ex, nil)
	got := mustGroupBy(t, ex, all, "Name", path, m, Sum)
	want := groupByRef(ex, all, "Name", path, m, Sum)
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("got %v, want %v (both groups must appear)", got, want)
	}
	if got[relation.String("Widget A")] != 0 {
		t.Errorf("all-NaN group sum = %v, want 0", got[relation.String("Widget A")])
	}
}
