package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with exactly ten beyond", v, err)
	}
	if _, err := percentile(xs, 0.91); err == nil {
		t.Fatal("p91 of 100 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Fatal("p50 of 19 samples must be refused: the rule holds for the median too")
	}
	if v, err := percentile(xs[:20], 0.50); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{10, 11, 12}); math.Abs(got-2.0/11) > 1e-12 {
		t.Fatalf("spread of three values = %v, want (max-min)/median", got)
	}
}

func TestOpenLoopChargesAStallToLaterSends(t *testing.T) {
	const interval = 20 * time.Millisecond
	start := time.Now().Add(interval)
	ops, late := openLoop(context.Background(), start, interval, 5, func(i int) (bool, string) {
		if i == 1 {
			time.Sleep(3 * interval) // the server stalls on the second batch
		}
		return true, ""
	})
	if len(ops) != 5 || len(late) != 5 {
		t.Fatalf("sent %d, want 5", len(ops))
	}
	for i, o := range ops {
		if want := start.Add(time.Duration(i) * interval); !o.start.Equal(want) {
			t.Errorf("batch %d timed from %v, want its due time %v", i, o.start, want)
		}
	}
	// Batch 1 left on time and took the stall; batches 2 and 3 were due
	// during it, left late, and are charged the wait although the server
	// answered them at once.
	if late[1] > interval/2 {
		t.Errorf("batch 1 left %v late, want on time", late[1])
	}
	if lat := ops[2].end.Sub(ops[2].start); lat < 2*interval-interval/4 {
		t.Errorf("batch 2 charged %v, want about %v of the stall", lat, 2*interval)
	}
	if late[2] < interval || late[3] < interval/2 {
		t.Errorf("lateness %v: batches due during the stall must report it", late)
	}
	if late[4] > late[2] {
		t.Errorf("lateness %v: the generator must catch up after the stall", late)
	}
}

func TestSeedGivesIdenticalSessions(t *testing.T) {
	draw := func(w workload, seed int64, client int) []session {
		seq := newSequence(w, seed, client, 50)
		out := make([]session, 300)
		for i := range out {
			out[i] = seq.next()
		}
		return out
	}
	for _, w := range workloads {
		a, b := draw(w, 7, 1), draw(w, 7, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed and client gave different sessions", w.name)
		}
		if reflect.DeepEqual(a, draw(w, 8, 1)) || reflect.DeepEqual(a, draw(w, 7, 0)) {
			t.Errorf("%s: another seed or client gave the same sessions", w.name)
		}
		if !w.zipf {
			// A permutation: every query once in each round of 50.
			seen := map[int]bool{}
			for _, s := range a[:50] {
				seen[s.query] = true
			}
			if len(seen) != 50 {
				t.Errorf("%s: first round covers %d of 50 queries", w.name, len(seen))
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: layerServer, Name: "http explore", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerKdapcore, Name: "explore", Start: 100, End: 170},
		{ID: 3, Parent: 2, Layer: layerOlap, Name: "factrows", Start: 170, End: 190},
		{ID: 4, Parent: 2, Layer: layerOlap, Name: "groupby", Start: 190, End: 220},
		// A replay that outran its parent: self time stops at zero.
		{ID: 5, Layer: layerServer, Name: "http query", Start: 300, End: 310},
		{ID: 6, Parent: 5, Layer: layerKdapcore, Name: "differentiate", Start: 310, End: 325},
	}
	want := map[int]int64{1: 30, 2: 20, 3: 20, 4: 30, 5: 0, 6: 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestMetricsDelta(t *testing.T) {
	const before = `# HELP kdap_answer_cache_hits_total Answer cache hits by phase and warehouse.
# TYPE kdap_answer_cache_hits_total counter
kdap_answer_cache_hits_total{phase="differentiate",db="aw"} 10
kdap_answer_cache_hits_total{phase="explore",db="aw"} 4
kdap_cache_hits_total{cache="subspace_rows",db="aw"} 7
kdap_cache_hits_total{cache="constraint",db="aw"} 100
kdap_sessions_live 3
`
	const after = `kdap_answer_cache_hits_total{phase="differentiate",db="aw"} 25
kdap_answer_cache_hits_total{phase="explore",db="aw"} 9
kdap_cache_hits_total{cache="subspace_rows",db="aw"} 8
kdap_cache_hits_total{cache="constraint",db="aw"} 150
kdap_http_requests_total{route="/api/query",code="200"} 12
kdap_stage_seconds_sum{stage="score DimCustomer.Yearly Income"} 0.5
kdap_sessions_live 3
`
	b, err := parseMetrics(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseMetrics(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := b.delta(a)
	if got := d.sum("kdap_answer_cache_hits_total"); got != 20 {
		t.Errorf("answer hits delta = %v, want 20 over both phases", got)
	}
	if got := d.sum("kdap_answer_cache_hits_total", `phase="explore"`); got != 5 {
		t.Errorf("explore hits delta = %v, want 5", got)
	}
	if got := d.sum("kdap_cache_hits_total", `cache="subspace_rows"`); got != 1 {
		t.Errorf("rows hits delta = %v, want 1", got)
	}
	if got := d.sum("kdap_http_requests_total"); got != 12 {
		t.Errorf("a series that appears during the pass counts from zero: %v, want 12", got)
	}
	if got := d.sum("kdap_stage_seconds_sum"); got != 0.5 {
		t.Errorf("a label value with a space in it: %v, want 0.5", got)
	}
	if got := d.sum("kdap_cache_hits"); got != 0 {
		t.Errorf("a name that only prefixes a series must not match it: %v", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio of nothing = %v, want 0", got)
	}
	if _, err := parseMetrics(strings.NewReader("kdap_x notanumber\n")); err == nil {
		t.Error("a value that is not a number must be an error")
	}
}

func TestHashMasksTheSessionHandle(t *testing.T) {
	a := hashBody([]byte(`{"session":"s1a","query":"Bikes","interpretations":[]}`))
	b := hashBody([]byte(`{"session":"szz9","query":"Bikes","interpretations":[]}`))
	c := hashBody([]byte(`{"session":"s1a","query":"Bikes","interpretations":[{}]}`))
	if a != b {
		t.Error("answers that differ only in the session handle must hash alike")
	}
	if a == c {
		t.Error("answers that differ in content must not")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(thr, p50, failed float64) *runResult {
		return &runResult{
			Stamp: stamp{Workload: "paper50.zipf"}, Valid: true, Correct: failed == 0,
			Attempted: 1000, Failed: int(failed),
			Metrics: map[string]metric{
				"throughput_ops_s": {Value: thr, Unit: "1/s"},
				"query_p50_ms":     {Value: p50, Unit: "ms"},
			},
		}
	}
	base := []*runResult{mk(1000, 1.0, 0), mk(1010, 1.01, 0), mk(990, 0.99, 0)}
	var out bytes.Buffer
	if compare(&out, base, base) {
		t.Fatalf("a result compared with itself regressed:\n%s", out.String())
	}
	out.Reset()
	slower := []*runResult{mk(700, 1.0, 0), mk(710, 1.0, 0), mk(705, 1.0, 0)}
	if !compare(&out, base, slower) || !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("30%% less throughput against a 20%% bound must regress:\n%s", out.String())
	}
	out.Reset()
	noisy := []*runResult{mk(500, 1.0, 0), mk(1000, 1.0, 0), mk(1500, 1.0, 0)}
	if compare(&out, base, noisy) || !strings.Contains(out.String(), "unresolved") {
		t.Fatalf("a spread wider than the bound is unresolved, not a verdict:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, base, []*runResult{mk(1000, 1.0, 1)}) {
		t.Fatalf("a higher failed share must regress:\n%s", out.String())
	}
}

// TestContractFileMatchesTheTables keeps BENCHMARK.json, which the
// builder's driver reads, in step with the tables the program prints
// from.
func TestContractFileMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the program %q: %q", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.contract {
			gated = append(gated, d)
		}
	}
	if len(file.EndToEnd) != len(gated) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gated in the program", len(file.EndToEnd), len(gated))
	}
	for i, d := range gated {
		f := file.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, the program %+v", i, f, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, the program %+v", i, f, d)
		}
	}
}
