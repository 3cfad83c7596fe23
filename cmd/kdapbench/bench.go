package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"kdap/internal/cache"
	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/workload"
)

// The bench experiment times the columnar execution kernels against the
// retained row-at-a-time reference paths on AW_ONLINE and writes the
// numbers to BENCH.json, so future changes can track the perf
// trajectory without re-deriving a baseline.

// benchResult is one measured operation.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchFile is the BENCH.json schema.
type benchFile struct {
	GeneratedBy string        `json:"generated_by"`
	Date        string        `json:"date"`
	GoOS        string        `json:"goos"`
	GoArch      string        `json:"goarch"`
	GoMaxProcs  int           `json:"gomaxprocs"`
	Dataset     string        `json:"dataset"`
	Results     []benchResult `json:"results"`
	// Telemetry snapshots the engine's own counters after the timed
	// runs: cache hit rates and kernel-path counts explain the numbers
	// above (e.g. a warm constraint cache or an all-columnar run).
	Telemetry benchTelemetry `json:"telemetry"`
	// AnswerCache records the cold-vs-warm cost of a full query pair
	// (differentiate + explore) through the answer cache, plus the
	// cache's counters after the timed runs.
	AnswerCache answerCacheBench `json:"answer_cache"`
	// Pruning pins a cold selective drill-down through the row-space
	// planner: latency plus how many of the fact table's segments the
	// drill skipped. The nightly gate holds the latency to the shared
	// 20% budget and the zone-skip rate to a 50% floor.
	Pruning pruningBench `json:"pruning"`
	// Quality pins star-net ranking quality on the 50-query workload;
	// the nightly gate fails on any precision@1 drop.
	Quality qualityBench `json:"quality"`
	// KernelSweep re-times the hot kernels (GroupByDict, FusedAggregate)
	// and the pruned drill at GOMAXPROCS 1/4/16, replacing the old
	// single-GOMAXPROCS kernel snapshot: the parallel path only trips
	// above the striping threshold, so a one-point measurement says
	// nothing about the multicore ladder.
	KernelSweep []kernelSweepEntry `json:"kernel_sweep"`
	// QPS is the closed-loop throughput ladder (see qps.go): serial vs
	// batched vs full-HTTP QPS and latency quantiles per GOMAXPROCS.
	// The nightly gate fails on a >20% batched-QPS drop, a p99 blowup,
	// or a batched-over-serial speedup below 2x at the top rung.
	QPS qpsBench `json:"qps"`
	// Segments pins the disk-backed segment layer's drill ladder (1M
	// and 10M facts): cold/warm latency, segment skip rate, and peak
	// RSS. Written by `-exp segments` (not `-exp bench` — the 10M rung
	// takes minutes); the nightly gate re-runs the 1M rung.
	Segments *segmentsBench `json:"segments,omitempty"`
	// Ingest pins the streaming-append path (see ingest.go): sustained
	// facts/sec while the query storm runs, ingesting-vs-idle p50, and
	// post-stream fingerprint parity against a from-scratch build.
	// Written by `-exp ingest`; the nightly gate re-runs the whole
	// measurement.
	Ingest *ingestBench `json:"ingest,omitempty"`
	// Cluster pins the distributed rung (see cluster.go): fingerprint
	// parity of a 2-worker scatter-gather topology against a monolithic
	// engine over the full workload, plus the cold-explore latency
	// ladder at 1/2/4 loopback workers. Written by `-exp cluster`; the
	// nightly gate re-runs parity and holds the 2-worker ratio.
	Cluster *clusterBench `json:"cluster,omitempty"`
}

// kernelSweepEntry is one GOMAXPROCS point of the kernel sweep.
type kernelSweepEntry struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
}

// pruningBench is the cold pruned drill-down rung.
type pruningBench struct {
	// Query is the drill whose numeric bound lands on the
	// ingest-clustered SalesKey column, so zone maps can prune.
	Query string `json:"query"`
	// NsPerOp times SubspaceRows with the rows cache purged before every
	// iteration (cold semijoin + drill filter each time).
	NsPerOp int64 `json:"ns_per_op"`
	// Segments is the fact table's segment count; the three counters are
	// the planner's verdicts over one cold execution of Query (a drill
	// plans more than one scan, so they need not sum to Segments).
	Segments            int   `json:"segments"`
	SegmentsScanned     int64 `json:"segments_scanned"`
	SegmentsSkippedZone int64 `json:"segments_skipped_zone"`
	SegmentsSkippedBits int64 `json:"segments_skipped_bits"`
	// SubspaceRows is the drill's result cardinality.
	SubspaceRows int `json:"subspace_rows"`
}

// qualityBench is the workload ranking-quality snapshot.
type qualityBench struct {
	Workload     string  `json:"workload"`
	Method       string  `json:"method"`
	Queries      int     `json:"queries"`
	Top1         int     `json:"top1"`
	PrecisionAt1 float64 `json:"precision_at_1"`
}

// answerCacheBench is the cold-vs-warm answer-cache comparison.
type answerCacheBench struct {
	// ColdNsPerOp times differentiate + explore with the cache
	// invalidated before every iteration (every answer recomputed).
	ColdNsPerOp int64 `json:"cold_ns_per_op"`
	// WarmNsPerOp times the same pair against a populated cache.
	WarmNsPerOp int64   `json:"warm_ns_per_op"`
	Speedup     float64 `json:"speedup"`
	// Differentiate and Explore snapshot the per-phase cache counters
	// accumulated across both timed runs.
	Differentiate answerCacheSnapshot `json:"differentiate"`
	Explore       answerCacheSnapshot `json:"explore"`
}

// answerCacheSnapshot is cache.AnswerStats plus the derived hit rate.
type answerCacheSnapshot struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Coalesced int64   `json:"coalesced"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	HitRate   float64 `json:"hit_rate"`
}

func snapshotAnswers(s cache.AnswerStats) answerCacheSnapshot {
	return answerCacheSnapshot{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		Coalesced: s.Coalesced, Entries: s.Len, Bytes: s.Bytes,
		HitRate: s.HitRate(),
	}
}

// benchTelemetry is the post-run engine counter snapshot.
type benchTelemetry struct {
	SubspaceRowsCache cacheSnapshot  `json:"subspace_rows_cache"`
	ConstraintCache   cacheSnapshot  `json:"constraint_cache"`
	Kernels           olap.ExecStats `json:"kernels"`
	FulltextProbes    int64          `json:"fulltext_probes"`
}

// cacheSnapshot is cache.Stats plus the derived hit rate.
type cacheSnapshot struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

func snapshotCache(s cache.Stats) cacheSnapshot {
	return cacheSnapshot{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		HitRate: s.HitRate(),
	}
}

// measure times fn (≥ minIters iterations, ≥ 200ms of wall time) and
// counts its steady-state allocations.
func measure(name string, fn func()) benchResult {
	fn() // warm caches out of the timed region
	// Best of three timed blocks: a single block averages in whatever
	// transient load the machine happens to carry, which makes the
	// nightly ratio flap; the minimum converges on the kernel's true
	// cost in both the baseline and the fresh run.
	const (
		minIters = 20
		blocks   = 3
	)
	var ns int64
	for b := 0; b < blocks; b++ {
		iters := 0
		start := time.Now()
		for elapsed := time.Duration(0); iters < minIters || elapsed < 200*time.Millisecond; elapsed = time.Since(start) {
			fn()
			iters++
		}
		if per := time.Since(start).Nanoseconds() / int64(iters); b == 0 || per < ns {
			ns = per
		}
	}
	allocs := testing.AllocsPerRun(5, fn)
	return benchResult{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

// pruningQuery is the drill the pruning rung and the kernel sweep time:
// its numeric bound lands on the ingest-clustered SalesKey column, so
// the planner can prove most segments irrelevant from zone maps alone.
const pruningQuery = "Road Bikes SalesKey>54000"

// benchPruning times a cold selective drill-down on AW_ONLINE and
// captures the planner's per-drill verdict.
func benchPruning() (pruningBench, error) {
	wh := dataset.AWOnline()
	fact := wh.DB.Table(wh.Graph.FactTable())
	e := experiments.Engine(wh)
	nets, err := e.Differentiate(pruningQuery)
	if err != nil || len(nets) == 0 {
		return pruningBench{}, fmt.Errorf("pruning bench: differentiate: %v (%d nets)", err, len(nets))
	}
	before := e.Executor().Stats()
	rows := e.SubspaceRows(nets[0])
	after := e.Executor().Stats()
	if len(rows) == 0 {
		return pruningBench{}, fmt.Errorf("pruning bench: %q drill produced no rows", pruningQuery)
	}
	res := measure("PrunedDrill", func() {
		e.InvalidateSubspaceRows()
		if len(e.SubspaceRows(nets[0])) != len(rows) {
			panic("pruned drill changed cardinality")
		}
	})
	return pruningBench{
		Query:               pruningQuery,
		NsPerOp:             res.NsPerOp,
		Segments:            relation.NumSegments(fact.Len(), fact.SegmentSize()),
		SegmentsScanned:     after.SegmentsScanned - before.SegmentsScanned,
		SegmentsSkippedZone: after.SegmentsSkippedZone - before.SegmentsSkippedZone,
		SegmentsSkippedBits: after.SegmentsSkippedBits - before.SegmentsSkippedBits,
		SubspaceRows:        len(rows),
	}, nil
}

// benchQuality scores the standard ranking method's precision@1 on the
// 50-query AW_ONLINE workload — the quality floor the nightly gate
// holds every future change to.
func benchQuality() (qualityBench, error) {
	e := experiments.Engine(dataset.AWOnline())
	qs := workload.AWOnlineQueries()
	top1 := 0
	for _, q := range qs {
		rank, err := experiments.QueryRank(e, q, kdapcore.Standard)
		if err != nil {
			return qualityBench{}, fmt.Errorf("quality bench: query %d %q: %w", q.ID, q.Text, err)
		}
		if rank == 1 {
			top1++
		}
	}
	return qualityBench{
		Workload:     "AW_ONLINE",
		Method:       kdapcore.Standard.String(),
		Queries:      len(qs),
		Top1:         top1,
		PrecisionAt1: float64(top1) / float64(len(qs)),
	}, nil
}

// computeKernelSweep times the two hot scan kernels and the cold
// pruned drill at each GOMAXPROCS rung. AW_ONLINE's fact table is far
// above the default striping threshold, so rungs above 1 actually take
// the parallel path (asserted by TestBenchWorkloadTakesParallelPath).
func computeKernelSweep() ([]kernelSweepEntry, error) {
	e := experiments.Engine(dataset.AWOnline())
	ex := e.Executor()
	m := e.Measure()
	path, ok := e.Graph().PathFromFact("DimProductSubcategory", "Product")
	if !ok {
		return nil, fmt.Errorf("kernel sweep: no path to DimProductSubcategory")
	}
	rows := ex.FactRows(nil)

	nets, err := e.Differentiate(pruningQuery)
	if err != nil || len(nets) == 0 {
		return nil, fmt.Errorf("kernel sweep: differentiate: %v (%d nets)", err, len(nets))
	}

	var out []kernelSweepEntry
	for _, p := range qpsGOMAXPROCS {
		prev := runtime.GOMAXPROCS(p)
		out = append(out, kernelSweepEntry{GOMAXPROCS: p, Results: []benchResult{
			measure("GroupByDict", func() {
				if len(ex.GroupBy(rows, "SubcategoryName", path, m, olap.Sum)) == 0 {
					panic("no groups")
				}
			}),
			measure("FusedAggregate", func() {
				if ex.Aggregate(rows, m, olap.Sum) == 0 {
					panic("zero aggregate")
				}
			}),
			measure("PrunedDrill", func() {
				e.InvalidateSubspaceRows()
				if len(e.SubspaceRows(nets[0])) == 0 {
					panic("pruned drill produced no rows")
				}
			}),
		}})
		runtime.GOMAXPROCS(prev)
	}
	return out, nil
}

func computeBench() (benchFile, error) {
	e := experiments.Engine(dataset.AWOnline())
	ex := e.Executor()
	m := e.Measure()
	path, ok := e.Graph().PathFromFact("DimProductSubcategory", "Product")
	if !ok {
		return benchFile{}, fmt.Errorf("bench: no path to DimProductSubcategory")
	}
	rows := ex.FactRows(nil)

	nets, err := e.Differentiate(experiments.Table1Query)
	if err != nil || len(nets) == 0 {
		return benchFile{}, fmt.Errorf("bench: differentiate: %v (%d nets)", err, len(nets))
	}
	opts := kdapcore.DefaultExploreOptions()
	opts.DisplayIntervals = 3

	out := benchFile{
		GeneratedBy: "kdapbench -exp bench",
		Date:        time.Now().UTC().Format("2006-01-02"),
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Dataset:     "AW_ONLINE",
		Results: []benchResult{
			measure("GroupByDict", func() {
				if len(ex.GroupBy(rows, "SubcategoryName", path, m, olap.Sum)) == 0 {
					panic("no groups")
				}
			}),
			measure("GroupByRef", func() {
				if len(ex.GroupByRef(rows, "SubcategoryName", path, m, olap.Sum)) == 0 {
					panic("no groups")
				}
			}),
			measure("FusedAggregate", func() {
				if ex.Aggregate(rows, m, olap.Sum) == 0 {
					panic("zero aggregate")
				}
			}),
			measure("AggregateRef", func() {
				if ex.AggregateRef(rows, m, olap.Sum) == 0 {
					panic("zero aggregate")
				}
			}),
			measure("Table2Facets", func() {
				if _, err := e.Explore(nets[0], opts); err != nil {
					panic(err)
				}
			}),
		},
	}
	out.Telemetry = benchTelemetry{
		SubspaceRowsCache: snapshotCache(e.RowsCacheStats()),
		ConstraintCache:   snapshotCache(ex.ConstraintCacheStats()),
		Kernels:           ex.Stats(),
		FulltextProbes:    e.Index().ProbeCount(),
	}

	// Cold vs warm through the answer cache: the cache is enabled only
	// now, so the kernel measurements above stay uncached. Cold
	// invalidates before every iteration; warm replays the identical
	// query pair against the populated store.
	e.SetAnswerCache(64, 0)
	queryPair := func() {
		ns, err := e.Differentiate(experiments.Table1Query)
		if err != nil || len(ns) == 0 {
			panic(fmt.Sprintf("bench: differentiate: %v (%d nets)", err, len(ns)))
		}
		if _, err := e.Explore(ns[0], opts); err != nil {
			panic(err)
		}
	}
	cold := measure("AnswerCacheCold", func() {
		e.InvalidateAnswers()
		queryPair()
	})
	warm := measure("AnswerCacheWarm", queryPair)
	out.Results = append(out.Results, cold, warm)
	diffStats, explStats, _ := e.AnswerCacheStats()
	out.AnswerCache = answerCacheBench{
		ColdNsPerOp:   cold.NsPerOp,
		WarmNsPerOp:   warm.NsPerOp,
		Speedup:       float64(cold.NsPerOp) / float64(warm.NsPerOp),
		Differentiate: snapshotAnswers(diffStats),
		Explore:       snapshotAnswers(explStats),
	}

	if out.Pruning, err = benchPruning(); err != nil {
		return benchFile{}, err
	}
	out.Results = append(out.Results, benchResult{Name: "PrunedDrill", NsPerOp: out.Pruning.NsPerOp})
	if out.Quality, err = benchQuality(); err != nil {
		return benchFile{}, err
	}
	if out.KernelSweep, err = computeKernelSweep(); err != nil {
		return benchFile{}, err
	}
	if out.QPS, err = computeQPS(); err != nil {
		return benchFile{}, err
	}
	return out, nil
}

func benchJSON() error {
	out, err := computeBench()
	if err != nil {
		return err
	}
	// Carry the pinned segments ladder and ingest section forward: they
	// are written by `-exp segments` / `-exp ingest` only (both are
	// minutes of work), and a plain `-exp bench` refresh must not
	// silently drop them.
	if prev, err := os.ReadFile("BENCH.json"); err == nil {
		var old benchFile
		if json.Unmarshal(prev, &old) == nil {
			out.Segments = old.Segments
			out.Ingest = old.Ingest
			out.Cluster = old.Cluster
		}
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range out.Results {
		fmt.Printf("%-16s %12d ns/op %10.0f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	fmt.Printf("pruned drill     %d segments: %d scanned / %d zone-skipped / %d bit-skipped\n",
		out.Pruning.Segments, out.Pruning.SegmentsScanned, out.Pruning.SegmentsSkippedZone, out.Pruning.SegmentsSkippedBits)
	fmt.Printf("quality          precision@1 %.2f (%d/%d)\n",
		out.Quality.PrecisionAt1, out.Quality.Top1, out.Quality.Queries)
	for _, ks := range out.KernelSweep {
		for _, r := range ks.Results {
			fmt.Printf("%-16s %12d ns/op   (GOMAXPROCS=%d)\n", r.Name, r.NsPerOp, ks.GOMAXPROCS)
		}
	}
	for _, s := range out.QPS.Sweep {
		fmt.Printf("qps GOMAXPROCS=%-2d serial %.0f  batched %.0f (%.2fx)  http %.0f\n",
			s.GOMAXPROCS, s.Serial.QPS, s.Batched.QPS, s.Speedup, s.HTTP.QPS)
	}
	if po := out.QPS.ProfileOverhead; po != nil {
		fmt.Printf("profiling overhead @GOMAXPROCS=%d: p50 %+.1f%%\n", po.GOMAXPROCS, po.OverheadP50Pct)
	}
	fmt.Println("wrote BENCH.json")
	return nil
}

// nightlySlack is how much slower than the committed BENCH.json a
// benchmark may run before the nightly gate fails. CI machines are
// noisy; 20% is the regression budget the issue tracker agreed on.
const nightlySlack = 1.20

// nightly re-runs the measured suite in-process and compares it against
// the committed BENCH.json baseline. It fails (non-nil error, so the
// process exits 1) on any >20% latency regression, any precision@1
// drop, or a pruned drill that zone-skips under half the segments.
func nightly() error {
	buf, err := os.ReadFile("BENCH.json")
	if err != nil {
		return fmt.Errorf("nightly: read baseline: %w", err)
	}
	var base benchFile
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("nightly: parse baseline: %w", err)
	}
	// The segments gate runs first, while VmHWM still reflects the
	// disk-backed run rather than the resident warehouses computeBench
	// is about to load.
	segFailures, err := nightlySegments(base.Segments)
	if err != nil {
		return err
	}
	fresh, err := computeBench()
	if err != nil {
		return err
	}

	baseline := make(map[string]benchResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	failures := segFailures
	for _, r := range fresh.Results {
		b, ok := baseline[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("%-16s %12d ns/op   (no baseline, skipped)\n", r.Name, r.NsPerOp)
			continue
		}
		ratio := float64(r.NsPerOp) / float64(b.NsPerOp)
		status := "ok"
		if ratio > nightlySlack {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %d ns/op vs baseline %d (%.2fx > %.2fx budget)",
				r.Name, r.NsPerOp, b.NsPerOp, ratio, nightlySlack))
		}
		fmt.Printf("%-16s %12d ns/op   baseline %12d   %.2fx  %s\n", r.Name, r.NsPerOp, b.NsPerOp, ratio, status)
	}
	fmt.Printf("%-16s %12.2f        baseline %12.2f\n", "precision@1", fresh.Quality.PrecisionAt1, base.Quality.PrecisionAt1)
	if fresh.Quality.PrecisionAt1 < base.Quality.PrecisionAt1 {
		failures = append(failures, fmt.Sprintf("precision@1 dropped: %.2f vs baseline %.2f (%d/%d vs %d/%d)",
			fresh.Quality.PrecisionAt1, base.Quality.PrecisionAt1,
			fresh.Quality.Top1, fresh.Quality.Queries, base.Quality.Top1, base.Quality.Queries))
	}
	// The pruned drill's latency is held by the PrunedDrill row above;
	// its skip floor keeps the zone maps earning it.
	fmt.Printf("%-16s %8d/%-3d        baseline %8d/%-3d (floor 50%%)\n", "pruning skip",
		fresh.Pruning.SegmentsSkippedZone, fresh.Pruning.Segments, base.Pruning.SegmentsSkippedZone, base.Pruning.Segments)
	if 2*fresh.Pruning.SegmentsSkippedZone < int64(fresh.Pruning.Segments) {
		failures = append(failures, fmt.Sprintf("pruned drill zone-skipped %d of %d segments, below the 50%% floor",
			fresh.Pruning.SegmentsSkippedZone, fresh.Pruning.Segments))
	}

	// Kernel sweep: every (kernel, GOMAXPROCS) point holds to the same
	// 20% latency budget as the flat results.
	baseSweep := make(map[string]benchResult)
	for _, ks := range base.KernelSweep {
		for _, r := range ks.Results {
			baseSweep[fmt.Sprintf("%s@%d", r.Name, ks.GOMAXPROCS)] = r
		}
	}
	for _, ks := range fresh.KernelSweep {
		for _, r := range ks.Results {
			key := fmt.Sprintf("%s@%d", r.Name, ks.GOMAXPROCS)
			b, ok := baseSweep[key]
			if !ok || b.NsPerOp <= 0 {
				fmt.Printf("%-28s %12d ns/op   (no baseline, skipped)\n", key, r.NsPerOp)
				continue
			}
			ratio := float64(r.NsPerOp) / float64(b.NsPerOp)
			status := "ok"
			if ratio > nightlySlack {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %d ns/op vs baseline %d (%.2fx > %.2fx budget)",
					key, r.NsPerOp, b.NsPerOp, ratio, nightlySlack))
			}
			fmt.Printf("%-28s %12d ns/op   baseline %12d   %.2fx  %s\n", key, r.NsPerOp, b.NsPerOp, ratio, status)
		}
	}

	// QPS ladder: batched throughput may not drop more than the 20%
	// budget at any rung, batched p99 gets a wider 50% budget (the tail
	// of a 256-request run is one scheduling hiccup wide), and the top
	// rung must keep batching worth at least 2x over per-request
	// execution — the floor the batch scheduler was built to clear.
	baseQPS := make(map[int]qpsSweepEntry, len(base.QPS.Sweep))
	for _, s := range base.QPS.Sweep {
		baseQPS[s.GOMAXPROCS] = s
	}
	const p99Slack = 1.50
	for _, s := range fresh.QPS.Sweep {
		b, ok := baseQPS[s.GOMAXPROCS]
		if !ok || b.Batched.QPS <= 0 {
			fmt.Printf("qps@%-2d batched %8.1f qps   (no baseline, skipped)\n", s.GOMAXPROCS, s.Batched.QPS)
			continue
		}
		status := "ok"
		if s.Batched.QPS < b.Batched.QPS/nightlySlack {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("qps@%d: batched %.1f qps vs baseline %.1f (>%.0f%% drop)",
				s.GOMAXPROCS, s.Batched.QPS, b.Batched.QPS, (nightlySlack-1)*100))
		}
		if b.Batched.P99Ms > 0 && s.Batched.P99Ms > b.Batched.P99Ms*p99Slack {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("qps@%d: batched p99 %.1fms vs baseline %.1fms (>%.0f%% regression)",
				s.GOMAXPROCS, s.Batched.P99Ms, b.Batched.P99Ms, (p99Slack-1)*100))
		}
		fmt.Printf("qps@%-2d batched %8.1f qps (p99 %7.1fms)  baseline %8.1f (p99 %7.1fms)  %.2fx serial  %s\n",
			s.GOMAXPROCS, s.Batched.QPS, s.Batched.P99Ms, b.Batched.QPS, b.Batched.P99Ms, s.Speedup, status)
	}
	if n := len(fresh.QPS.Sweep); n > 0 {
		if top := fresh.QPS.Sweep[n-1]; top.Speedup < 2 {
			failures = append(failures, fmt.Sprintf("qps@%d: batched speedup %.2fx over serial below the 2x floor",
				top.GOMAXPROCS, top.Speedup))
		}
	}
	// Always-on profiling must stay cheap: the wide event's per-request
	// cost on the top batched rung is bounded at 5% of p50. Gated on the
	// fresh run alone (profiled vs unprofiled are measured back-to-back
	// in one process, so the ratio is robust to machine-speed drift).
	const profileOverheadBudgetPct = 5.0
	if po := fresh.QPS.ProfileOverhead; po != nil {
		status := "ok"
		if po.OverheadP50Pct > profileOverheadBudgetPct {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf(
				"qps@%d: profiling overhead %+.1f%% p50 exceeds the %.0f%% budget",
				po.GOMAXPROCS, po.OverheadP50Pct, profileOverheadBudgetPct))
		}
		fmt.Printf("qps@%-2d profiling overhead p50 %+.1f%% (budget %.0f%%)  %s\n",
			po.GOMAXPROCS, po.OverheadP50Pct, profileOverheadBudgetPct, status)
	}
	// The ingest gate runs last: it builds two 512k-row warehouses whose
	// live heap would skew the absolute-latency gates above, while its
	// own verdicts — append throughput, the idle-vs-ingesting p50 ratio,
	// fingerprint parity — are measured back-to-back inside its own run
	// and tolerate ambient heap pressure.
	// The cluster rung spins its own engines and loopback sockets; like
	// ingest it is self-contained (parity and the 2-worker ratio are
	// measured within one run), so it also goes after the absolute gates.
	cluFailures, err := nightlyCluster(base.Cluster)
	if err != nil {
		return err
	}
	failures = append(failures, cluFailures...)
	ingFailures, err := nightlyIngest(base.Ingest)
	if err != nil {
		return err
	}
	failures = append(failures, ingFailures...)
	if len(failures) > 0 {
		return fmt.Errorf("nightly: %d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Println("nightly: all benchmarks within budget")
	return nil
}
