package main

import (
	"context"
	"os"
	"testing"
	"time"
)

// smokeFacts is the scale the scaled workloads smoke at: enough for
// every code path, a fiftieth of the build time.
const smokeFacts = 20_000

// smoke runs one workload end to end for a second, in this process.
func smoke(t *testing.T, name string, trace bool) *runResult {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.traceSessions = 12
	cfg := runConfig{w: w, seed: 3, warm: 200 * time.Millisecond, window: time.Second, trace: trace, outDir: t.TempDir()}
	if w.facts > 0 {
		cfg.facts = smokeFacts
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d notes=%q", name, res.Correct, res.Failed, res.Attempted, res.Notes)
	}
	return res
}

func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := smoke(t, w.name, false)
			// Whether a one-second window holds the samples its percentiles
			// need depends on the machine (it does not under -race), so only
			// what must hold anywhere is asserted.
			for _, d := range endToEnd {
				if _, ok := res.Metrics[d.name]; d.contract && !ok {
					t.Errorf("%s not reported", d.name)
				}
			}
			if res.Metrics["throughput_ops_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 || res.Metrics["peak_rss_mb"].Value <= 0 {
				t.Errorf("throughput, set-up time and peak RSS must be positive: %+v", res.Metrics)
			}
			if w.drill && res.Stamp.Samples["drill"] == 0 {
				t.Error("no drill was timed")
			}
			if w.ingest && res.Stamp.Samples["ingest"] == 0 {
				t.Error("no ingest batch was timed")
			}
			if res.contractLine() == "" {
				t.Error("no contract line")
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"paper50.uncached", "paper50.zipf", "scaled1m.ingest"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := smoke(t, name, true)
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s not reported", d.name)
				}
			}
			if res.Info["spans"] == 0 {
				t.Error("no spans recorded")
			}
			switch name {
			case "paper50.uncached":
				if res.Metrics["fulltext_search_ms"].Value <= 0 || res.Metrics["groupby_ms"].Value <= 0 {
					t.Errorf("uncached replay must reach fulltext and olap: %+v", res.Metrics)
				}
			case "paper50.zipf":
				// Not 1: the four expected-error explores are never cached.
				if r := res.Metrics["answer_hit_ratio"].Value; r < 0.7 {
					t.Errorf("answer_hit_ratio = %v, want the cache to serve the replay", r)
				}
			case "scaled1m.ingest":
				if res.Metrics["append_ms"].Value <= 0 {
					t.Errorf("no append was mirrored: %+v", res.Metrics)
				}
			}
			if _, err := os.Stat(res.SpanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
