package kdap

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§6), plus micro-benchmarks of the substrates each
// experiment exercises (the columnar kernels' benchmarks against their
// reference implementations live in internal/olap). Run everything with
//
//	go test -bench=. -benchmem
//
// The per-experiment benchmarks regenerate the corresponding table or
// figure data each iteration, so ns/op is the end-to-end cost of the
// experiment on this machine; cmd/kdapbench prints the actual rows.

import (
	"context"
	"fmt"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/fulltext"
	"kdap/internal/kdapcore"
	"kdap/internal/stats"
	"kdap/internal/workload"
)

// BenchmarkTable1StarNets regenerates Table 1: differentiate
// "California Mountain Bikes" on AW_ONLINE and rank the candidates.
func BenchmarkTable1StarNets(b *testing.B) {
	e := NewEngine(AWOnline())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nets, err := e.DifferentiateCtx(context.Background(), experiments.Table1Query)
		if err != nil || len(nets) == 0 {
			b.Fatalf("differentiate: %v (%d nets)", err, len(nets))
		}
	}
}

// BenchmarkTable2Facets regenerates Table 2: explore the chosen subspace
// and build the dynamic facets (roll-up partitioning, attribute and
// instance ranking, numeric merge).
func BenchmarkTable2Facets(b *testing.B) {
	e := NewEngine(AWOnline())
	nets, err := e.DifferentiateCtx(context.Background(), experiments.Table1Query)
	if err != nil || len(nets) == 0 {
		b.Fatal("no nets")
	}
	opts := DefaultExploreOptions()
	opts.DisplayIntervals = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExploreCtx(context.Background(), nets[0], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Ranking regenerates Figure 4: the 50-query workload under
// all four ranking methods.
func BenchmarkFig4Ranking(b *testing.B) {
	e := experiments.Engine(dataset.AWOnline())
	qs := workload.AWOnlineQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(e, qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Buckets regenerates one Figure 5 line: the YearlyIncome
// bucket-count sweep over every StateProvince→Country roll-up case.
func BenchmarkFig5Buckets(b *testing.B) {
	wh := dataset.AWOnline()
	e := experiments.Engine(wh)
	c := experiments.Fig5Cases()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BucketSweep(wh, e, c, experiments.DefaultBucketSweep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Buckets regenerates one Figure 6 line on AW_RESELLER.
func BenchmarkFig6Buckets(b *testing.B) {
	wh := dataset.AWReseller()
	e := experiments.Engine(wh)
	c := experiments.Fig6Cases()[2] // NumberOfEmployees
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BucketSweep(wh, e, c, experiments.DefaultBucketSweep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Annealing regenerates one Figure 7 case for K = 5, 6, 7.
func BenchmarkFig7Annealing(b *testing.B) {
	c := experiments.Fig7Cases()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(c, []int{5, 6, 7}, experiments.DefaultAnnealIterations); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnneal500Iterations isolates the §6.5 claim that a
// 500-iteration interval merge takes under 5 ms: pure in-memory annealing
// over 40 basic intervals.
func BenchmarkAnneal500Iterations(b *testing.B) {
	rng := stats.NewRNG(9)
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = rng.Float64() * 1000
		y[i] = x[i]*0.8 + rng.Float64()*200
	}
	cfg := kdapcore.AnnealConfig{K: 6, L: 4, N: 500, AcceptProb: 0.25, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kdapcore.MergeIntervals(x, y, cfg)
	}
}

// --- ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkMergeAblation compares the paper's simulated-annealing
// interval merge against the deterministic greedy alternative (§7's
// hypothesized "more efficient algorithm") and the unoptimized
// equal-width start.
func BenchmarkMergeAblation(b *testing.B) {
	rng := stats.NewRNG(77)
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = rng.Float64() * 1000
		y[i] = x[i]*0.6 + rng.Float64()*400
	}
	cfg := kdapcore.AnnealConfig{K: 6, L: 4, N: 500, AcceptProb: 0.25, Seed: 3}
	b.Run("anneal500", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kdapcore.MergeIntervals(x, y, cfg)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kdapcore.MergeIntervalsGreedy(x, y, cfg)
		}
	})
	b.Run("equalwidth", func(b *testing.B) {
		none := cfg
		none.N = 0
		for i := 0; i < b.N; i++ {
			kdapcore.MergeIntervals(x, y, none)
		}
	})
}

// BenchmarkExploreAblation compares sequential vs. parallel facet
// construction and the effect of the sub-dataspace cache (cold engines
// re-run the semijoin every iteration; warm ones hit the cache).
func BenchmarkExploreAblation(b *testing.B) {
	wh := AWOnline()
	nets, err := NewEngine(wh).DifferentiateCtx(context.Background(), experiments.Table1Query)
	if err != nil || len(nets) == 0 {
		b.Fatal("no nets")
	}
	sn := nets[0]
	b.Run("sequential-warm", func(b *testing.B) {
		e := NewEngine(wh)
		opts := DefaultExploreOptions()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExploreCtx(context.Background(), sn, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-warm", func(b *testing.B) {
		e := NewEngine(wh)
		opts := DefaultExploreOptions()
		opts.Parallel = true
		for i := 0; i < b.N; i++ {
			if _, err := e.ExploreCtx(context.Background(), sn, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-cache", func(b *testing.B) {
		opts := DefaultExploreOptions()
		for i := 0; i < b.N; i++ {
			e := NewEngine(wh) // fresh engine: no subspace cache, no path memo
			if _, err := e.ExploreCtx(context.Background(), sn, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiscover measures the batch surprise scan over the EBiz
// product-group level (one ExploreCtx per group instance).
func BenchmarkDiscover(b *testing.B) {
	e := NewEngine(EBiz())
	level := AttrRef{Table: "PGROUP", Attr: "GroupName"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Discover(context.Background(), level, "Product", Surprise, 5)
		if err != nil || len(out) == 0 {
			b.Fatalf("discover: %v (%d)", err, len(out))
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkFullTextSearch measures a single-keyword probe of the
// AW_ONLINE attribute-instance index.
func BenchmarkFullTextSearch(b *testing.B) {
	ix := AWOnline().Index
	queries := []string{"California", "Mountain", "Discount", "October", "Sydney"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.Search(queries[i%len(queries)], fulltext.Options{}); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkFullTextPhrase measures a positional phrase probe.
func BenchmarkFullTextPhrase(b *testing.B) {
	ix := AWOnline().Index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := ix.SearchPhrase("Mountain Bikes", fulltext.Options{}); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

// BenchmarkStarNetExecution measures slicing a sub-dataspace out of the
// >60k-row fact table through snowflake join paths.
func BenchmarkStarNetExecution(b *testing.B) {
	e := NewEngine(AWOnline())
	nets, err := e.DifferentiateCtx(context.Background(), "California Mountain Bikes")
	if err != nil || len(nets) == 0 {
		b.Fatal("no nets")
	}
	sn := nets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows, err := e.SubspaceRowsCtx(context.Background(), sn); err != nil || len(rows) == 0 {
			b.Fatalf("empty subspace: %v", err)
		}
	}
}

// BenchmarkGroupBy measures a full-dataspace group-by along a two-hop
// snowflake path.
func BenchmarkGroupBy(b *testing.B) {
	e := NewEngine(AWOnline())
	ex := e.Executor()
	path, ok := e.Graph().PathFromFact("DimProductSubcategory", "Product")
	if !ok {
		b.Fatal("no path")
	}
	ctx := context.Background()
	rows, err := ex.FactRowsCtx(ctx, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := ex.GroupByCtx(ctx, rows, "SubcategoryName", path, e.Measure(), Sum)
		if err != nil || len(groups) == 0 {
			b.Fatalf("no groups: %v", err)
		}
	}
}

// BenchmarkWarehouseBuild measures constructing the full EBiz warehouse
// (schema, data generation, indexing) from scratch.
func BenchmarkWarehouseBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wh := dataset.EBiz()
		if wh.DB.Table("TRANSITEM").Len() == 0 {
			b.Fatal("no facts")
		}
	}
}

// BenchmarkSubspaceScaling measures how sub-dataspace slicing scales with
// fact-table size over the same schema.
func BenchmarkSubspaceScaling(b *testing.B) {
	for _, size := range []int{4000, 16000, 64000} {
		wh := dataset.EBizSized(size)
		e := kdapcore.NewEngine(wh.Graph, wh.Index,
			RevenueMeasure(wh), Sum)
		nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
		if err != nil || len(nets) == 0 {
			b.Fatal("no nets")
		}
		sn := nets[0]
		cs := sn.Constraints()
		b.Run(fmt.Sprintf("facts=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Hit the executor directly so the engine's subspace
				// cache doesn't absorb the work being measured.
				if rows, err := e.Executor().FactRowsCtx(context.Background(), cs); err != nil || len(rows) == 0 {
					b.Fatalf("empty subspace: %v", err)
				}
			}
		})
	}
}

// BenchmarkDifferentiatePerKeywords measures the differentiate phase as
// query length grows.
func BenchmarkDifferentiatePerKeywords(b *testing.B) {
	e := NewEngine(AWOnline())
	queries := map[string]string{
		"1kw": "California",
		"2kw": "California Bikes",
		"3kw": "California Mountain Bikes",
		"5kw": "North America Europe Pacific Bikes 2003",
	}
	for _, name := range []string{"1kw", "2kw", "3kw", "5kw"} {
		q := queries[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.DifferentiateCtx(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
