package olap

import (
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
