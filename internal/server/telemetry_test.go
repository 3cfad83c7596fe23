package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// scrape fetches /metrics, validates the exposition format, and returns
// the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
	return buf.String()
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)

	// Drive a query+explore so the pipeline, cache, and kernel series
	// all carry data.
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &q)
	post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 1}, &FacetsDTO{})

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`kdap_http_requests_total{code="200",route="/api/query"}`,
		`kdap_http_request_seconds_bucket{`,
		`kdap_stage_seconds_bucket{stage="differentiate",le="+Inf"}`,
		`kdap_stage_seconds_bucket{stage="subspace_semijoin",le="+Inf"}`,
		`kdap_cache_misses_total{cache="subspace_rows",db="ebiz"}`,
		`kdap_cache_evictions_total{cache="distributions",db="ebiz"}`,
		`kdap_olap_groupby_total{db="ebiz"}`,
		`kdap_olap_scans_total{db="ebiz",mode="serial"}`,
		`kdap_fulltext_probe_seconds_count{db="ebiz"}`,
		`kdap_warehouse_fact_rows{db="ebiz"}`,
		`kdap_table_resident_bytes{db="ebiz",table="TRANSITEM"}`,
		`kdap_executor_resident_bytes{db="ebiz",kind="code_vectors"}`,
		`kdap_executor_resident_bytes{db="ebiz",kind="fact_to_dim"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// spanNames flattens a span tree into its set of stage names.
func spanNames(sp *telemetry.SpanJSON, into map[string]bool) {
	if sp == nil {
		return
	}
	into[sp.Name] = true
	for _, c := range sp.Children {
		spanNames(c, into)
	}
}

func TestQueryAndExploreTraces(t *testing.T) {
	ts := newTestServer(t)

	var q QueryResponse
	resp := post(t, ts, "/api/query?trace=1", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if q.Trace == nil {
		t.Fatal("no trace in ?trace=1 query response")
	}
	got := map[string]bool{}
	spanNames(q.Trace, got)
	for _, stage := range []string{
		"query", "differentiate", "filter_extract", "hit_probe",
		"phrase_merge", "seed_enum", "starnet_gen", "rank",
	} {
		if !got[stage] {
			t.Errorf("query trace missing stage %q (got %v)", stage, got)
		}
	}

	var f FacetsDTO
	resp = post(t, ts, "/api/explore?trace=1", map[string]any{"session": q.Session, "pick": 1}, &f)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status %d", resp.StatusCode)
	}
	if f.Trace == nil {
		t.Fatal("no trace in ?trace=1 explore response")
	}
	got = map[string]bool{}
	spanNames(f.Trace, got)
	for _, stage := range []string{
		"explore", "subspace_semijoin", "rollup_build", "facet_score",
		"groupby_kernel", "rollup_correlate",
	} {
		if !got[stage] {
			t.Errorf("explore trace missing stage %q (got %v)", stage, got)
		}
	}

	// Without ?trace=1 the tree stays server-side.
	var plain QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus"}, &plain)
	if plain.Trace != nil {
		t.Error("trace leaked into untraced response")
	}
}

func TestErrorPathsIncrementCounters(t *testing.T) {
	ts := newTestServer(t)

	oversized := `{"db":"ebiz","q":"` + strings.Repeat("x", 1<<20) + `"}`
	cases := []struct {
		path   string
		body   string
		status int
	}{
		{"/api/query", `{bad json`, http.StatusBadRequest},
		{"/api/query", `{"db":"ghost","q":"x"}`, http.StatusNotFound},
		{"/api/query", `{"db":"ebiz","q":"   "}`, http.StatusBadRequest},
		{"/api/query", oversized, http.StatusRequestEntityTooLarge},
		{"/api/explore", `{bad json`, http.StatusBadRequest},
		{"/api/explore", `{"session":"ghost","pick":1}`, http.StatusNotFound},
		{"/api/explore", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.path, resp.StatusCode, c.status)
		}
	}

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`kdap_http_errors_total{route="/api/query"} 4`,
		`kdap_http_errors_total{route="/api/explore"} 3`,
		`kdap_http_requests_total{code="400",route="/api/query"} 2`,
		`kdap_http_requests_total{code="404",route="/api/query"} 1`,
		`kdap_http_requests_total{code="413",route="/api/query"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

func TestDebugEndpoints(t *testing.T) {
	ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expvar status %d", resp.StatusCode)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("expvar missing memstats")
	}
}

// metricValue reads one series' value out of an exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics missing %s", series)
	return 0
}

// Pruning is on by default and visible: a server built from
// DefaultOptions, nothing else configured, must zone-skip at least half
// of AW_ONLINE's segments on a drill whose bound lands on the
// ingest-clustered SalesKey column, and say so on /metrics, in the
// request's wide event and in its span tree.
func TestPruningOnByDefault(t *testing.T) {
	wh := dataset.AWOnline()
	srv := NewWithOptions(map[string]*dataset.Warehouse{"aw": wh}, DefaultOptions())
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	fact := wh.DB.Table(wh.Graph.FactTable())
	segments := float64(relation.NumSegments(fact.Len(), fact.SegmentSize()))

	const series = `kdap_segments_skipped_zone_total{db="aw"}`
	before := metricValue(t, scrape(t, ts.URL), series)
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "aw", "q": "Road Bikes SalesKey>54000"}, &q)
	var f FacetsDTO
	resp, err := http.Post(ts.URL+"/api/explore?trace=1&profile=1", "application/json",
		strings.NewReader(`{"session":"`+q.Session+`","pick":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil || f.SubspaceSize == 0 {
		t.Fatalf("explore: %v, %d rows", err, f.SubspaceSize)
	}
	body := scrape(t, ts.URL)
	if skipped := metricValue(t, body, series) - before; 2*skipped < segments {
		t.Errorf("drill raised %s by %g, want at least half of %g segments", series, skipped, segments)
	}
	if metricValue(t, body, `kdap_segments_scanned_total{db="aw"}`) == 0 {
		t.Error("no segment scanned")
	}
	metricValue(t, body, `kdap_segments_skipped_bits_total{db="aw"}`)
	if f.Profile == nil || 2*float64(f.Profile.SegmentsSkippedZone) < segments || f.Profile.SegmentsScanned == 0 {
		t.Errorf("wide event does not carry the planner's verdict: %+v", f.Profile)
	}
	names := map[string]bool{}
	spanNames(f.Trace, names)
	if !names["segment_scan"] {
		t.Errorf("span tree has no segment_scan: %v", names)
	}
}

// stageLabels is the closed set of kdap_stage_seconds labels, the list
// docs/OPERATIONS.md documents: the five API operations' root spans and
// the pipeline stages below them.
var stageLabels = map[string]bool{
	"query": true, "suggest": true, "explore": true, "drill": true, "ingest": true,
	"queue_wait": true, "cache_lookup": true,
	"differentiate": true, "filter_extract": true, "hit_probe": true, "phrase_merge": true,
	"seed_enum": true, "starnet_gen": true, "rank": true,
	"subspace_semijoin": true, "subspace_extend": true, "segment_scan": true,
	"rollup_build": true, "facet_score": true, "score": true, "groupby_kernel": true,
	"numeric_series": true, "rollup_correlate": true, "interval_anneal": true,
	"ingest_append": true, "append_rows": true, "index_terms": true, "evict_answers": true,
}

// The stage label set stays closed whatever the schema: after a query
// and an explore on two warehouses, every exposed stage is in the list
// and none names a scored attribute — while ?trace=1 still shows which
// attribute each scoring span scored.
func TestStageLabelsClosed(t *testing.T) {
	srv := NewWithOptions(map[string]*dataset.Warehouse{
		"ebiz": dataset.EBiz(), "online": dataset.AWOnline(),
	}, DefaultOptions())
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var scored []string
	for db, q := range map[string]string{"ebiz": "Columbus LCD", "online": "Road Bikes"} {
		var qr QueryResponse
		post(t, ts, "/api/query", map[string]any{"db": db, "q": q}, &qr)
		var f FacetsDTO
		if resp := post(t, ts, "/api/explore?trace=1", map[string]any{"session": qr.Session, "pick": 1}, &f); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s explore status %d", db, resp.StatusCode)
		}
		spans := map[string]bool{}
		spanNames(f.Trace, spans)
		n := len(scored)
		for name := range spans {
			if ref, ok := strings.CutPrefix(name, "score "); ok {
				_, attr, _ := strings.Cut(ref, ".")
				scored = append(scored, attr)
			}
		}
		if len(scored) == n {
			t.Fatalf("%s: no span names the attribute it scored: %v", db, spans)
		}
	}

	const prefix = `kdap_stage_seconds_count{stage="`
	n := 0
	for _, line := range strings.Split(scrape(t, ts.URL), "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		stage, _, _ := strings.Cut(rest, `"`)
		n++
		if !stageLabels[stage] {
			t.Errorf("stage %q is not in the documented list", stage)
		}
		for _, attr := range scored {
			if strings.Contains(stage, attr) {
				t.Errorf("stage %q names the attribute %q", stage, attr)
			}
		}
	}
	if n == 0 {
		t.Fatal("no kdap_stage_seconds series exposed")
	}
}

// A request's wide event and its /metrics deltas agree because both are
// one fold of the same trace: for a query, an explore and an ingest run
// serially on a fresh server, each counter moves by exactly what the
// request's event reports.
func TestEventAndMetricsAreOneFold(t *testing.T) {
	ts, srv := newTestServerAndHandler(t)
	series := []struct {
		name  string
		field func(*telemetry.Event) int64
	}{
		{`kdap_olap_scans_total{db="ebiz",mode="serial"}`, func(ev *telemetry.Event) int64 { return ev.SerialScans }},
		{`kdap_olap_scans_total{db="ebiz",mode="parallel"}`, func(ev *telemetry.Event) int64 { return ev.ParallelScans }},
		{`kdap_olap_kernel_chunks_total{db="ebiz"}`, func(ev *telemetry.Event) int64 { return ev.KernelStripes }},
		{`kdap_segments_scanned_total{db="ebiz"}`, func(ev *telemetry.Event) int64 { return ev.SegmentsScanned }},
		{`kdap_segments_skipped_zone_total{db="ebiz"}`, func(ev *telemetry.Event) int64 { return ev.SegmentsSkippedZone }},
		{`kdap_segments_skipped_bits_total{db="ebiz"}`, func(ev *telemetry.Event) int64 { return ev.SegmentsSkippedBits }},
		{`kdap_cache_hits_total{cache="distributions",db="ebiz"}`, func(ev *telemetry.Event) int64 { return ev.SharedScans }},
	}
	read := func() []float64 {
		body := scrape(t, ts.URL)
		out := make([]float64, len(series))
		for i, s := range series {
			out[i] = metricValue(t, body, s.name)
		}
		return out
	}
	check := func(what string, before []float64, ev *telemetry.Event) {
		t.Helper()
		after := read()
		for i, s := range series {
			if got, want := after[i]-before[i], float64(s.field(ev)); got != want {
				t.Errorf("%s: %s moved by %g, its event reports %g", what, s.name, got, want)
			}
		}
	}

	before := read()
	var q QueryResponse
	post(t, ts, "/api/query?profile=1", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &q)
	check("query", before, q.Profile)

	before = read()
	var f FacetsDTO
	post(t, ts, "/api/explore?profile=1", map[string]any{"session": q.Session, "pick": 1}, &f)
	if f.Profile == nil || f.Profile.SerialScans+f.Profile.ParallelScans == 0 || f.Profile.SegmentsScanned == 0 {
		t.Fatalf("the explore counted no scans; the test lost its premise: %+v", f.Profile)
	}
	check("explore", before, f.Profile)

	before = read()
	var ing IngestResponse
	post(t, ts, "/api/ingest", map[string]any{"db": "ebiz", "rows": [][]any{ebizFactRow(dataset.EBizFactCount + 1)}}, &ing)
	recent := srv.FlightRecorder().Recent()
	if len(recent) == 0 || recent[0].Route != "/api/ingest" {
		t.Fatalf("the ingest is not the newest recorded request: %+v", recent)
	}
	check("ingest", before, recent[0])
}
