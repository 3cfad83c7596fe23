package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric. Names are final: later issues make their
// claims in them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is a regression; per-layer
	// metrics explain, they do not gate, and have none.
	bound float64
	// contract marks the end-to-end metrics BENCHMARK.json lists, which
	// the builder's driver gates: those that every workload reports and
	// that a 15 s window holds steady on every one of them. The driver
	// rejects the whole benchmark when one gated metric spreads wider than
	// its bound on one workload, so a metric that is steady on three
	// workloads and not on the fourth is compared here but gated nowhere.
	contract bool
	meaning  string
}

// tailP is the tail percentile of the timings. The issue asked for p99,
// which needs 1,100 samples per operation type; the 15 s window the
// builder's contract leaves gives scaled1m.drill about 350 queries, so
// by the harness's own ten-samples-beyond rule p90 is the highest
// percentile every workload supports. p95 and p99 are printed beside it
// wherever a run has the samples.
const tailP = 0.90

// Bounds are three times the spread between ten seeds of one commit on
// the 2-core sandbox (see README.md, "Steadiness"), whose floor — the
// same seed ten times — is 3 to 5%: a tighter bound would call noise a
// regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true, "process start → first request servable: warehouse build, full-text index, engine and server construction; median over fresh processes"},
	{"throughput_ops_s", "1/s", "higher", 0.20, true, "correct HTTP operations completed per second in the window, all operation types"},
	{"query_p50_ms", "ms", "lower", 0.25, true, "POST /api/query round trip (differentiate), median"},
	{"query_p90_ms", "ms", "lower", 0.25, false, "POST /api/query round trip, 90th percentile; not gated: 350 samples under scaled1m.drill's explores leave it a 15-20% spread"},
	{"explore_p50_ms", "ms", "lower", 0.20, false, "POST /api/explore round trip, top-level and drilled, median; not gated: scaled1m.drill's explores span 3-150 ms with the median in the sparsest stretch, and sets of ten seeds spread 4% one hour and 19% the next"},
	{"explore_p90_ms", "ms", "lower", 0.25, true, "POST /api/explore round trip, 90th percentile"},
	{"peak_rss_mb", "MB", "lower", 0.20, true, "VmHWM when the window closes (set-up, oracle pass, warm-up and window; not the verification after it)"},
	{"ingest_ack_p50_ms", "ms", "lower", 0.25, false, "POST /api/ingest timed from the batch's due time, median (scaled1m.ingest only)"},
	{"ingest_ack_p90_ms", "ms", "lower", 0.25, false, "POST /api/ingest from due time, 90th percentile (scaled1m.ingest only)"},
}

var perLayer = []metricDef{
	{name: "server_self_ms", unit: "ms", better: "lower", meaning: "server: HTTP round trip minus the engine call for the same operation, mean per read operation"},
	{name: "answer_hit_ratio", unit: "ratio", better: "higher", meaning: "cache: answer-cache hits / lookups over the traced pass (/metrics delta)"},
	{name: "rows_hit_ratio", unit: "ratio", better: "higher", meaning: "cache: subspace-rows cache hits / lookups (/metrics delta)"},
	{name: "answers_kept_ratio", unit: "ratio", better: "higher", meaning: "cache: cached answers an ingest batch left in place / answers it examined"},
	{name: "differentiate_ms", unit: "ms", better: "lower", meaning: "kdapcore: Engine.DifferentiateCtx, mean per query"},
	{name: "explore_ms", unit: "ms", better: "lower", meaning: "kdapcore: Engine.ExploreCtx, mean per explore"},
	{name: "kdapcore_self_ms", unit: "ms", better: "lower", meaning: "kdapcore: explore minus its olap replays, mean per explore"},
	{name: "nets_per_query", unit: "count", better: "lower", meaning: "kdapcore: star nets generated per differentiate"},
	{name: "fulltext_search_ms", unit: "ms", better: "lower", meaning: "fulltext: Index.SearchCtx, mean per keyword probe"},
	{name: "hits_per_probe", unit: "count", better: "lower", meaning: "fulltext: hits returned per probe"},
	{name: "factrows_ms", unit: "ms", better: "lower", meaning: "olap: Executor.FactRowsCtx on the net's constraints, mean per computed explore"},
	{name: "groupby_ms", unit: "ms", better: "lower", meaning: "olap: GroupByCtx/NumericSeriesCtx over those rows for the answer's facet attributes, mean per computed explore"},
	{name: "rows_scanned", unit: "count", better: "lower", meaning: "olap: fact rows handed to the group-by and series replays, total"},
	{name: "olap_scans", unit: "count", better: "lower", meaning: "olap: kdap_olap_scans_total delta on the live server"},
	{name: "append_ms", unit: "ms", better: "lower", meaning: "ingest path: Engine.AppendFacts for the batch, mean"},
	{name: "ingest_decode_self_ms", unit: "ms", better: "lower", meaning: "ingest path: HTTP ack minus AppendFacts for the same batch, mean (decode, validation, encode)"},
	{name: "allocs_per_op", unit: "count", better: "lower", meaning: "runtime: heap allocations per HTTP operation, generator and server together, serial pass"},
	{name: "gc_pause_ms", unit: "ms", better: "lower", meaning: "runtime: GC pause total over the serial pass"},
	{name: "trace_overhead_pct", unit: "%", better: "lower", meaning: "summed HTTP time of the serial pass with span recording on over the same pass with it off, minus one"},
}

// metric is one reported value; n is the number of samples behind a
// timing (0 where that has no meaning).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// stamp says what produced a result, so that two results are only ever
// compared knowingly.
type stamp struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Traced     bool           `json:"traced"`
	Nproc      int            `json:"nproc"`
	Gomaxprocs int            `json:"gomaxprocs"`
	Clients    int            `json:"clients"`
	GoVersion  string         `json:"go"`
	Facts      int            `json:"facts"`
	WarmupS    float64        `json:"warmup_s"`
	WindowS    float64        `json:"window_s"`
	Commit     string         `json:"commit"`
	Samples    map[string]int `json:"samples"`
}

// runResult is one run of one workload.
type runResult struct {
	Stamp stamp `json:"stamp"`
	// Valid is false when a timing lacked the samples its percentile
	// needs; Correct is false when any answer was wrong.
	Valid     bool              `json:"valid"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds what is measured beside the metrics: oracle_s,
	// verify_s, generator lateness, counts.
	Info map[string]float64 `json:"info"`
	// SpanFile is where the traced run wrote its spans.
	SpanFile string   `json:"span_file,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

func (r *runResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the human-readable report.
func (r *runResult) print(w io.Writer) {
	s := r.Stamp
	mode := "untraced"
	if s.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  nproc %d GOMAXPROCS %d clients %d  %s  facts %d  warm-up %.1fs window %.1fs  commit %s\n",
		s.Workload, s.Seed, mode, s.Nproc, s.Gomaxprocs, s.Clients, s.GoVersion, s.Facts, s.WarmupS, s.WindowS, s.Commit)
	var kinds []string
	for k := range s.Samples {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprint(w, "   samples:")
	for _, k := range kinds {
		fmt.Fprintf(w, " %s=%d", k, s.Samples[k])
	}
	fmt.Fprintln(w)
	defs := endToEnd
	if s.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "   %-24s %14.4f %-6s %s\n", d.name, m.Value, m.Unit, n)
	}
	fmt.Fprintf(w, "   %-24s %14.6f %-6s failed=%d attempted=%d\n", "failed_share", r.failedShare(), "ratio", r.Failed, r.Attempted)
	var info []string
	for k := range r.Info {
		info = append(info, k)
	}
	sort.Strings(info)
	for _, k := range info {
		fmt.Fprintf(w, "   . %-22s %14.4f\n", k, r.Info[k])
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", r.SpanFile)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   ! %s\n", n)
	}
	if !r.Valid {
		fmt.Fprintln(w, "   ! INVALID: a percentile lacked the samples it needs")
	}
}

// contractLine is the one JSON object the builder's driver reads from
// the last line of standard output.
func (r *runResult) contractLine() string {
	defs := endToEnd
	if r.Stamp.Traced {
		defs = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val)
	for _, d := range defs {
		if !r.Stamp.Traced && !d.contract {
			continue
		}
		ms[d.name] = val{r.Metrics[d.name].Value, d.unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(map[string]any{ // a map of plain values cannot fail to marshal
		"correct": r.Correct && r.Valid, "attempted": attempted, "failed": r.Failed, "metrics": ms,
	})
	return string(line)
}

// appendResult adds r to the JSON array in path, creating it.
func appendResult(path string, r *runResult) error {
	runs, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(runs, r), "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*runResult
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// compare prints, per workload and end-to-end metric, the relative
// difference of b's median against a's and its bound. A metric whose
// run-to-run spread on either side exceeds the bound is unresolved, not
// unchanged. It reports whether b regressed: a metric worse by more than
// its bound, or a higher failed share.
func compare(w io.Writer, a, b []*runResult) (regressed bool) {
	group := func(runs []*runResult) map[string][]*runResult {
		g := make(map[string][]*runResult)
		for _, r := range runs {
			if !r.Stamp.Traced {
				g[r.Stamp.Workload] = append(g[r.Stamp.Workload], r)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	fmt.Fprintf(w, "%-18s %-20s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "diff", "bound", "spread", "verdict")
	for _, wl := range workloads {
		ra, rb := ga[wl.name], gb[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.name), values(rb, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "within bound"
			switch {
			case sp > d.bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > d.bound:
				verdict = "REGRESSION"
				regressed = true
			case worse < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-18s %-20s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.name, d.name, ma, mb, 100*(mb-ma)/ma, 100*d.bound, 100*sp, verdict)
		}
		fa, fb := worstFailedShare(ra), worstFailedShare(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-18s %-20s %12.6f %12.6f %8s %7s %8s  %s\n", wl.name, "failed_share", fa, fb, "", "0 abs", "", verdict)
	}
	return regressed
}

func values(runs []*runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func worstFailedShare(runs []*runResult) float64 {
	var worst float64
	for _, r := range runs {
		if s := r.failedShare(); s > worst {
			worst = s
		}
		if !r.Correct && worst == 0 {
			worst = 1 // wrong without a failed operation: a verification pass failed
		}
	}
	return worst
}
