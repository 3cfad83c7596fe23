// Command kdapbench regenerates every table and figure of the paper's
// evaluation section and prints them as text tables.
//
// Usage:
//
//	kdapbench [-exp all|table1|table2|table3|fig4|fig4r|fig4sim|fig5|fig6|fig7|merge|latency|discover]
//
// The output is what EXPERIMENTS.md records as "measured". Serving
// performance is measured by the benchmark module under benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/kdapcore"
	"kdap/internal/schemagraph"
	"kdap/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, table3, fig4, fig4r, fig4sim, fig5, fig6, fig7, merge, latency, discover")
	flag.Parse()

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", table1)
	run("table2", table2)
	run("table3", table3)
	run("fig4", fig4Online)
	run("fig4r", fig4Reseller)
	run("fig4sim", fig4Similarity)
	run("fig5", fig5)
	run("fig6", fig6)
	run("fig7", fig7)
	run("merge", mergeAblation)
	run("latency", latency)
	run("discover", discover)
}

func table1() error {
	fmt.Printf("== Table 1: star nets for %q (AW_ONLINE) ==\n", experiments.Table1Query)
	lines, _, err := experiments.Table1(3)
	if err != nil {
		return err
	}
	for i, l := range lines {
		fmt.Printf("%d. %s\n", i+1, l)
	}
	return nil
}

func table2() error {
	fmt.Println("== Table 2: Product-dimension facets for the selected star net ==")
	_, lines, err := experiments.Table2()
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}

func table3() error {
	fmt.Println("== Table 3: the 50-query workload, with the standard method's rank per query ==")
	e := experiments.Engine(dataset.AWOnline())
	for _, q := range workload.AWOnlineQueries() {
		rank, err := experiments.QueryRank(e, q, kdapcore.Standard)
		if err != nil {
			return err
		}
		fmt.Printf("%2d. %-42q rank %d\n", q.ID, q.Text, rank)
	}
	return nil
}

func fig4Online() error {
	fmt.Println("== Figure 4: star-net ranking methods, 50-query workload (AW_ONLINE) ==")
	e := experiments.Engine(dataset.AWOnline())
	curves, err := experiments.Fig4(e, workload.AWOnlineQueries())
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatRankCurves(curves))
	return nil
}

func fig4Reseller() error {
	fmt.Println("== Figure 4 replica: reseller workload (AW_RESELLER, §6.3) ==")
	e := experiments.Engine(dataset.AWReseller())
	curves, err := experiments.Fig4(e, workload.AWResellerQueries())
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatRankCurves(curves))
	return nil
}

func fig4Similarity() error {
	fmt.Println("== Similarity ablation: Figure 4 standard method under each text scorer ==")
	curves, err := experiments.SimilarityAblation(dataset.AWOnline(), workload.AWOnlineQueries())
	if err != nil {
		return err
	}
	for _, sc := range curves {
		c := sc.Curve
		fmt.Printf("%-14s top1=%3.0f%% top2=%3.0f%% top3=%3.0f%% top4=%3.0f%% top5=%3.0f%%\n",
			sc.Similarity, c.CumulativePct[0], c.CumulativePct[1], c.CumulativePct[2],
			c.CumulativePct[3], c.CumulativePct[4])
	}
	return nil
}

func fig5() error {
	fmt.Println("== Figure 5: bucket count vs group-by attribute score error (AW_ONLINE) ==")
	wh := dataset.AWOnline()
	e := experiments.Engine(wh)
	var results []experiments.BucketSweepResult
	for _, c := range experiments.Fig5Cases() {
		r, err := experiments.BucketSweep(wh, e, c, experiments.DefaultBucketSweep)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(experiments.FormatBucketSweeps(results))
	return nil
}

func fig6() error {
	fmt.Println("== Figure 6: bucket count vs group-by attribute score error (AW_RESELLER) ==")
	wh := dataset.AWReseller()
	e := experiments.Engine(wh)
	var results []experiments.BucketSweepResult
	for _, c := range experiments.Fig6Cases() {
		r, err := experiments.BucketSweep(wh, e, c, experiments.DefaultBucketSweep)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(experiments.FormatBucketSweeps(results))
	return nil
}

func discover() error {
	fmt.Println("== Discovery: most surprising product subcategories (AW_ONLINE) ==")
	e := experiments.Engine(dataset.AWOnline())
	out, err := e.Discover(schemagraph.AttrRef{Table: "DimProductSubcategory", Attr: "SubcategoryName"},
		"Product", kdapcore.Surprise, 8)
	if err != nil {
		return err
	}
	for i, d := range out {
		fmt.Printf("%d. %-22s %6d facts  revenue %14.2f  along %s (%+.3f)\n",
			i+1, d.Value.Text(), d.Rows, d.Aggregate, d.BestAttr, d.Score)
	}
	return nil
}

func latency() error {
	fmt.Println("== Interactive latency over the 50-query workload (AW_ONLINE) ==")
	rep, err := experiments.Latency()
	if err != nil {
		return err
	}
	fmt.Printf("differentiate  p50=%-12v p95=%-12v max=%v\n",
		rep.DifferentiateP50, rep.DifferentiateP95, rep.DifferentiateMax)
	fmt.Printf("explore        p50=%-12v p95=%-12v max=%v  (%d subspaces)\n",
		rep.ExploreP50, rep.ExploreP95, rep.ExploreMax, rep.ExploredSubspaces)
	return nil
}

func mergeAblation() error {
	fmt.Println("== Merge-algorithm ablation: error% per strategy (§7 extension) ==")
	rows, err := experiments.MergeAblation([]int{5, 6, 7})
	if err != nil {
		return err
	}
	fmt.Printf("%-42s %2s %12s %8s %10s\n", "case", "K", "equal-width", "greedy", "anneal500")
	for _, r := range rows {
		fmt.Printf("%-42s %2d %11.2f%% %7.2f%% %9.2f%%\n", r.Label, r.K, r.EqualWidth, r.Greedy, r.Anneal)
	}
	return nil
}

func fig7() error {
	fmt.Println("== Figures 7/8: interval-merge convergence (error% vs iterations, K = 5..7) ==")
	for _, c := range experiments.Fig7Cases() {
		curves, err := experiments.Fig7(c, []int{5, 6, 7}, experiments.DefaultAnnealIterations)
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatAnnealCurves(curves))
		fmt.Println()
	}
	return nil
}
