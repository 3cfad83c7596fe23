package olap

import (
	"context"
	"testing"

	"kdap/internal/dataset"
)

func BenchmarkPivot(b *testing.B) {
	ex := NewExecutor(ebiz.Graph)
	m := ProductMeasure(ebiz.DB.Table("TRANSITEM"), "rev", "UnitPrice", "Quantity")
	rows := mustFactRows(b, ex, nil)
	rp, _ := ebiz.Graph.PathFromFact("PGROUP", "Product")
	cp, _ := ebiz.Graph.PathFromFact("LOC", "Store")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := mustPivot(b, ex, rows, "GroupName", rp, "State", cp, m, Sum)
		if pt.Grand == 0 {
			b.Fatal("empty pivot")
		}
	}
}

// awOnlineKernelInputs is the full AW_ONLINE dataspace under the
// paper's revenue measure, the input of the kernel benchmarks below.
func awOnlineKernelInputs(b *testing.B) (*Executor, []int, Measure) {
	wh := dataset.AWOnline()
	ex := NewExecutor(wh.Graph)
	return ex, mustFactRows(b, ex, nil), RevenueMeasure(wh.DB.Table(wh.Graph.FactTable()))
}

// BenchmarkGroupByDict measures a full-dataspace group-by along a
// two-hop snowflake path on the columnar kernel's workload:
// dictionary-encoded attribute codes accumulated into a dense state
// slice. The /ref variant runs the row-at-a-time reference over the
// identical inputs.
func BenchmarkGroupByDict(b *testing.B) {
	ex, rows, m := awOnlineKernelInputs(b)
	path, ok := ex.Graph().PathFromFact("DimProductSubcategory", "Product")
	if !ok {
		b.Fatal("no path")
	}
	mustGroupBy(b, ex, rows, "SubcategoryName", path, m, Sum) // warm the code-vector cache
	b.Run("dict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(mustGroupBy(b, ex, rows, "SubcategoryName", path, m, Sum)) == 0 {
				b.Fatal("no groups")
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(groupByRef(ex, rows, "SubcategoryName", path, m, Sum)) == 0 {
				b.Fatal("no groups")
			}
		}
	})
}

// BenchmarkFusedAggregate measures the fused scan+aggregate kernel over
// the full AW_ONLINE dataspace (striped above the row threshold)
// against the row-at-a-time reference.
func BenchmarkFusedAggregate(b *testing.B) {
	ex, rows, m := awOnlineKernelInputs(b)
	if mustAggregate(b, ex, rows, m, Sum) == 0 { // warm the measure vector
		b.Fatal("zero aggregate")
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if mustAggregate(b, ex, rows, m, Sum) == 0 {
				b.Fatal("zero")
			}
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if aggregateRef(ex, rows, m, Sum) == 0 {
				b.Fatal("zero")
			}
		}
	})
}

// BenchmarkNumericSeries measures the numeric series of the two
// AW_ONLINE numeric group-by attributes over 200k facts under the
// revenue measure: folded over every row (a roll-up's buckets) and
// materialised over every third row (a net's own series). The attribute
// is read through its code vector, built before the timer starts.
func BenchmarkNumericSeries(b *testing.B) {
	wh := dataset.AWOnlineScaled(200_000)
	ex := NewExecutor(wh.Graph)
	m := RevenueMeasure(wh.DB.Table(wh.Graph.FactTable()))
	all := mustFactRows(b, ex, nil)
	var third []int
	for i := 0; i < len(all); i += 3 {
		third = append(third, all[i])
	}
	for _, a := range []struct{ table, attr, dim string }{
		{"DimCustomer", "YearlyIncome", "Customer"},
		{"DimProduct", "DealerPrice", "Product"},
	} {
		path, ok := wh.Graph.PathFromFact(a.table, a.dim)
		if !ok {
			b.Fatalf("no path to %s", a.table)
		}
		mustSeries(b, ex, third, a.attr, path, m) // build the code vector
		b.Run(a.attr+"/fold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pairs := 0
				err := ex.FoldNumericSeriesCtx(context.Background(), all, a.attr, path, m, func(s []ValueMeasure) {
					pairs += len(s)
				})
				if err != nil || pairs == 0 {
					b.Fatalf("%d pairs: %v", pairs, err)
				}
			}
		})
		b.Run(a.attr+"/third", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(mustSeries(b, ex, third, a.attr, path, m)) == 0 {
					b.Fatal("empty series")
				}
			}
		})
	}
}
