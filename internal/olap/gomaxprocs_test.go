package olap

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"testing"
)

// The stripe grid's contract: a row set at or above parallelRowThreshold
// is cut into kernelStripes stripes whose partials merge in stripe
// order, whatever the worker count, so every kernel's bytes are
// independent of GOMAXPROCS. Each kernel runs over a striped row set and
// a serial one, on resident storage and on 128-row pages, at
// GOMAXPROCS 1, 4 and 16, and every float must match the first run bit
// for bit.
func TestKernelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n = 3*8192 + 700
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	ctx := context.Background()
	for _, segSize := range []int{0, 128} {
		pm := buildPlanMart(t, n, segSize)
		m := ColumnMeasure(pm.fact, "Noise")
		all := mustFactRows(t, pm.ex, nil)
		var third []int
		for i := 5; i < n; i += 3 {
			third = append(third, i)
		}
		for _, rows := range [][]int{all, third, all[8000:8400]} {
			// run returns every float the kernels produced over rows,
			// by where it came from.
			run := func() map[string]uint64 {
				out := map[string]uint64{}
				for _, agg := range []Agg{Sum, Avg, Max} {
					v, err := pm.ex.AggregateCtx(ctx, rows, m, agg)
					if err != nil {
						t.Fatal(err)
					}
					out[fmt.Sprint("aggregate ", agg)] = math.Float64bits(v)
					groups, err := pm.ex.GroupByCtx(ctx, rows, "Name", pm.pathA, m, agg)
					if err != nil {
						t.Fatal(err)
					}
					for g, v := range groups {
						out[fmt.Sprint("group-by ", agg, " ", g)] = math.Float64bits(v)
					}
				}
				series, err := pm.ex.NumericSeriesCtx(ctx, rows, "Score", pm.pathA, m)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range series {
					out[fmt.Sprint("series value ", i)] = math.Float64bits(p.Value)
					out[fmt.Sprint("series measure ", i)] = math.Float64bits(p.Measure)
				}
				return out
			}
			var want map[string]uint64
			for _, procs := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(procs)
				got := run()
				where := fmt.Sprintf("segSize %d, %d rows (striped %v), GOMAXPROCS %d", segSize, len(rows), len(rows) >= parallelRowThreshold, procs)
				if want == nil {
					want = got
					continue
				}
				if !maps.Equal(got, want) {
					t.Fatalf("%s: kernel bytes differ from GOMAXPROCS 1", where)
				}
			}
		}
	}
}
