package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"kdap/internal/telemetry"
)

// postJSON posts a JSON body to path (which may carry query
// parameters) and returns the response with its body decoded into out.
func postJSON(t *testing.T, url, path, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp
}

// ?profile=1 returns the request's wide event inline on both pipeline
// routes, with the execution evidence populated.
func TestProfileInline(t *testing.T) {
	ts := newTestServer(t)

	var q QueryResponse
	resp := postJSON(t, ts.URL, "/api/query?profile=1", `{"db":"ebiz","q":"Columbus LCD"}`, &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	p := q.Profile
	if p == nil {
		t.Fatal("?profile=1 query response has no profile")
	}
	if p.Route != "/api/query" || p.DB != "ebiz" || p.Query != "Columbus LCD" {
		t.Errorf("profile identity: %+v", p)
	}
	if p.ID == "" || p.ID != resp.Header.Get("X-Request-ID") {
		t.Errorf("profile id %q != response header %q", p.ID, resp.Header.Get("X-Request-ID"))
	}
	if p.InFlight || p.Disposition != telemetry.DispositionOK || p.Status != http.StatusOK {
		t.Errorf("inline profile not sealed ok: %+v", p)
	}
	if p.Cache == "" {
		t.Errorf("no cache outcome recorded: %+v", p)
	}
	if p.Candidates == 0 || p.FulltextProbes == 0 {
		t.Errorf("differentiate evidence missing (candidates=%d probes=%d)", p.Candidates, p.FulltextProbes)
	}
	if len(p.Stages) == 0 {
		t.Errorf("no stage breakdown: %+v", p)
	}

	var f FacetsDTO
	resp = postJSON(t, ts.URL, "/api/explore?profile=1",
		`{"session":"`+q.Session+`","pick":1}`, &f)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status %d", resp.StatusCode)
	}
	ep := f.Profile
	if ep == nil {
		t.Fatal("?profile=1 explore response has no profile")
	}
	if ep.Route != "/api/explore" || ep.DB != "ebiz" {
		t.Errorf("explore profile identity: %+v", ep)
	}
	if ep.SerialScans+ep.ParallelScans == 0 || ep.RowsScanned == 0 {
		t.Errorf("explore kernel evidence missing: %+v", ep)
	}
	if len(ep.Stages) == 0 {
		t.Errorf("explore profile has no stages: %+v", ep)
	}

	// Without the flag, neither inline profile appears.
	var plain QueryResponse
	postJSON(t, ts.URL, "/api/query", `{"db":"ebiz","q":"Columbus LCD"}`, &plain)
	if plain.Profile != nil {
		t.Error("profile returned without ?profile=1")
	}
}

// A client-supplied X-Request-ID is kept (truncated to the cap) and
// echoed; absent one, the server generates and echoes an ID.
func TestRequestIDPropagation(t *testing.T) {
	ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/query?profile=1",
		bytes.NewReader([]byte(`{"db":"ebiz","q":"Columbus"}`)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-abc-123" {
		t.Errorf("client ID not echoed: %q", got)
	}
	var q QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Profile == nil || q.Profile.ID != "trace-abc-123" {
		t.Errorf("profile did not keep the client ID: %+v", q.Profile)
	}
}

// /debug/queries serves the flight recorder: completed events land in
// recent (and errored when non-ok), and the route/db/min_ms filters
// narrow every view.
func TestDebugQueriesEndpoint(t *testing.T) {
	ts, srv := newTestServerAndHandler(t)

	var q QueryResponse
	postJSON(t, ts.URL, "/api/query", `{"db":"ebiz","q":"Columbus LCD"}`, &q)
	// An unknown warehouse is an error disposition for the recorder.
	postJSON(t, ts.URL, "/api/query", `{"db":"nope","q":"x"}`, nil)

	get := func(path string) DebugQueriesResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		var dq DebugQueriesResponse
		if err := json.NewDecoder(resp.Body).Decode(&dq); err != nil {
			t.Fatal(err)
		}
		return dq
	}

	dq := get("/debug/queries")
	if dq.SlowThresholdMS != srv.opts.SLOTarget.Seconds()*1000 {
		t.Errorf("slow threshold %v", dq.SlowThresholdMS)
	}
	if len(dq.Recent) < 2 {
		t.Fatalf("recent has %d events, want >= 2", len(dq.Recent))
	}
	// Newest first: the failed query leads.
	if dq.Recent[0].Disposition != telemetry.DispositionError || dq.Recent[0].Status != http.StatusNotFound {
		t.Errorf("newest recent event: %+v", dq.Recent[0])
	}
	if len(dq.Errored) == 0 || dq.Errored[0].Disposition != telemetry.DispositionError {
		t.Errorf("errored view: %+v", dq.Errored)
	}
	if len(dq.InFlight) != 0 {
		t.Errorf("in-flight not empty at rest: %+v", dq.InFlight)
	}

	if f := get("/debug/queries?route=/api/explore"); len(f.Recent) != 0 {
		t.Errorf("route filter leaked %d events", len(f.Recent))
	}
	if f := get("/debug/queries?db=ebiz"); len(f.Recent) == 0 {
		t.Error("db filter dropped the ebiz query")
	}
	if f := get("/debug/queries?min_ms=600000"); len(f.Recent) != 0 {
		t.Errorf("min_ms filter leaked %d events", len(f.Recent))
	}
	if resp, err := http.Get(ts.URL + "/debug/queries?min_ms=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus min_ms: %v %v", err, resp.Status)
	} else {
		resp.Body.Close()
	}
}

// Completed requests classify into the SLO counters, which are
// pre-registered for every route; the runtime gauges are always
// exposed.
func TestSLOAndRuntimeMetrics(t *testing.T) {
	ts := newTestServer(t)
	postJSON(t, ts.URL, "/api/query", `{"db":"ebiz","q":"Columbus LCD"}`, nil)
	// The request is classified when its handler returns, which is after
	// the client has its response: scrape until the classification shows.
	body := scrape(t, ts.URL)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline) &&
		!strings.Contains(body, `kdap_slo_good_total{route="/api/query"} 1`); {
		time.Sleep(time.Millisecond)
		body = scrape(t, ts.URL)
	}
	for _, want := range []string{
		`kdap_slo_good_total{route="/api/query"}`,
		`kdap_slo_bad_total{route="/api/query"}`,
		`kdap_slo_good_total{route="/api/drill"}`,
		`kdap_slo_target_seconds 0.25`,
		`kdap_requests_shed_total{route="/api/explore"} 0`,
		`kdap_requests_cancelled_total{reason="deadline",route="/api/query"} 0`,
		"kdap_go_goroutines",
		"kdap_go_heap_alloc_bytes",
		"kdap_go_gc_pause_seconds_total",
		"kdap_go_gc_cycles_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	// The interactive test query is far under the 250ms target: good=1.
	if !strings.Contains(body, `kdap_slo_good_total{route="/api/query"} 1`) {
		t.Errorf("query not classified good:\n%s", grepLines(body, "kdap_slo_"))
	}
}

// grepLines returns the lines of s containing substr, for failure
// messages that don't dump the whole exposition.
func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
