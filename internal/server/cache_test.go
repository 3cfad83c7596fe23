package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/telemetry/profile"
)

// postRaw posts a JSON body and returns the raw response bytes plus the
// response itself, for header and byte-equality assertions.
func postRaw(t *testing.T, ts *httptest.Server, path string, body any, header http.Header) ([]byte, *http.Response) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp
}

// TestQueryCacheMarkerAndHit: the first query is a miss, the repeat a
// hit, and both carry the same weak ETag.
func TestQueryCacheMarkerAndHit(t *testing.T) {
	ts := newTestServer(t)
	body := map[string]any{"db": "ebiz", "q": "Columbus LCD"}

	_, r1 := postRaw(t, ts, "/api/query", body, nil)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d", r1.StatusCode)
	}
	if got := r1.Header.Get("X-KDAP-Cache"); got != "miss" {
		t.Fatalf("first X-KDAP-Cache = %q, want miss", got)
	}
	etag := r1.Header.Get("ETag")
	if !strings.HasPrefix(etag, `W/"`) {
		t.Fatalf("ETag = %q, want weak tag", etag)
	}

	_, r2 := postRaw(t, ts, "/api/query", body, nil)
	if got := r2.Header.Get("X-KDAP-Cache"); got != "hit" {
		t.Fatalf("second X-KDAP-Cache = %q, want hit", got)
	}
	if r2.Header.Get("ETag") != etag {
		t.Fatalf("ETag changed across identical queries: %q vs %q", r2.Header.Get("ETag"), etag)
	}

	// Whitespace variants canonicalize to the same answer and tag.
	_, r3 := postRaw(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "  Columbus   LCD "}, nil)
	if got := r3.Header.Get("X-KDAP-Cache"); got != "hit" {
		t.Fatalf("variant X-KDAP-Cache = %q, want hit", got)
	}
	if r3.Header.Get("ETag") != etag {
		t.Fatal("whitespace variant produced a different ETag")
	}
}

// TestQueryIfNoneMatch304: presenting the ETag back revalidates without
// running the pipeline — 304, empty body, revalidated marker.
func TestQueryIfNoneMatch304(t *testing.T) {
	ts := newTestServer(t)
	body := map[string]any{"db": "ebiz", "q": "Columbus LCD"}
	_, r1 := postRaw(t, ts, "/api/query", body, nil)
	etag := r1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on query response")
	}

	raw, r2 := postRaw(t, ts, "/api/query", body, http.Header{"If-None-Match": {etag}})
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", r2.StatusCode)
	}
	if len(raw) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(raw))
	}
	if got := r2.Header.Get("X-KDAP-Cache"); got != "revalidated" {
		t.Fatalf("X-KDAP-Cache = %q, want revalidated", got)
	}

	// A stale tag (different query) must not revalidate.
	_, r3 := postRaw(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus"},
		http.Header{"If-None-Match": {etag}})
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("mismatched tag status = %d, want 200", r3.StatusCode)
	}
}

// TestExploreCacheByteIdentical: a repeated explore is a hit and its
// body is byte-for-byte the first response, and If-None-Match → 304.
func TestExploreCacheByteIdentical(t *testing.T) {
	ts := newTestServer(t)
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &q)
	if q.Session == "" || len(q.Interpretations) == 0 {
		t.Fatalf("query response: %+v", q)
	}
	body := map[string]any{"session": q.Session, "pick": 1}

	cold, r1 := postRaw(t, ts, "/api/explore", body, nil)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first explore: %d: %s", r1.StatusCode, cold)
	}
	if got := r1.Header.Get("X-KDAP-Cache"); got != "miss" {
		t.Fatalf("first explore X-KDAP-Cache = %q, want miss", got)
	}
	etag := r1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on explore response")
	}

	warm, r2 := postRaw(t, ts, "/api/explore", body, nil)
	if got := r2.Header.Get("X-KDAP-Cache"); got != "hit" {
		t.Fatalf("second explore X-KDAP-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached explore body differs from the cold computation")
	}

	raw, r3 := postRaw(t, ts, "/api/explore", body, http.Header{"If-None-Match": {etag}})
	if r3.StatusCode != http.StatusNotModified || len(raw) != 0 {
		t.Fatalf("explore revalidation: status=%d body=%dB, want 304 empty", r3.StatusCode, len(raw))
	}
}

// TestTraceBypassesRevalidation: ?trace=1 responses embed per-request
// span trees, so they carry no ETag and ignore If-None-Match.
func TestTraceBypassesRevalidation(t *testing.T) {
	ts := newTestServer(t)
	body := map[string]any{"db": "ebiz", "q": "Columbus LCD"}
	_, r1 := postRaw(t, ts, "/api/query", body, nil)
	etag := r1.Header.Get("ETag")

	raw, r2 := postRaw(t, ts, "/api/query?trace=1", body, http.Header{"If-None-Match": {etag}})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("traced request status = %d, want 200", r2.StatusCode)
	}
	if r2.Header.Get("ETag") != "" {
		t.Error("traced response carried an ETag")
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil || qr.Trace == nil {
		t.Fatalf("traced response missing span tree: err=%v", err)
	}
}

// TestAnswerCacheDisabledByOptions: AnswerCacheSize 0 turns the whole
// layer off — bypass markers, no ETags, no answer-cache metrics.
func TestAnswerCacheDisabledByOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.AnswerCacheSize = 0
	srv := NewWithOptions(map[string]*dataset.Warehouse{"ebiz": dataset.EBiz()}, opts)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := map[string]any{"db": "ebiz", "q": "Columbus LCD"}
	for i := 0; i < 2; i++ {
		_, r := postRaw(t, ts, "/api/query", body, nil)
		if got := r.Header.Get("X-KDAP-Cache"); got != "bypass" {
			t.Fatalf("request %d X-KDAP-Cache = %q, want bypass", i, got)
		}
		if r.Header.Get("ETag") != "" {
			t.Fatalf("request %d carried an ETag with caching disabled", i)
		}
	}
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	raw, _ := io.ReadAll(m.Body)
	if strings.Contains(string(raw), "kdap_answer_cache") {
		t.Fatal("answer-cache series exported with caching disabled")
	}
}

// TestAnswerCacheMetricsExported: the enabled cache exports its full
// series family, moving with traffic.
func TestAnswerCacheMetricsExported(t *testing.T) {
	ts := newTestServer(t)
	body := map[string]any{"db": "ebiz", "q": "Columbus LCD"}
	postRaw(t, ts, "/api/query", body, nil)
	postRaw(t, ts, "/api/query", body, nil)

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	raw, _ := io.ReadAll(m.Body)
	text := string(raw)
	for _, series := range []string{
		"kdap_answer_cache_hits_total",
		"kdap_answer_cache_misses_total",
		"kdap_answer_cache_evictions_total",
		"kdap_answer_cache_coalesced_total",
		"kdap_answer_cache_entries",
		"kdap_answer_cache_bytes",
	} {
		if !strings.Contains(text, series+`{db="ebiz",phase="differentiate"}`) &&
			!strings.Contains(text, series+`{phase="differentiate",db="ebiz"}`) {
			t.Errorf("metric %s missing differentiate series", series)
		}
	}
	if !strings.Contains(text, `kdap_answer_cache_hits_total{db="ebiz",phase="differentiate"} 1`) &&
		!strings.Contains(text, `kdap_answer_cache_hits_total{phase="differentiate",db="ebiz"} 1`) {
		t.Error("differentiate hit not counted after warm query")
	}
}

// TestCacheHeaderMatchesWideEvent: X-KDAP-Cache is read back from the
// request's wide event, so on both pipeline routes the header equals
// the event's cache field for every outcome — miss, hit, bypass (cache
// off) and revalidated. A ?profile=1 request carries its event inline;
// it is never revalidated, so a 304's event is read from the flight
// recorder, which holds the same event.
func TestCacheHeaderMatchesWideEvent(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cacheSize int
		outcomes  []string // first request, repeat
	}{
		{"cached", 64, []string{"miss", "hit"}},
		{"uncached", 0, []string{"bypass", "bypass"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.AnswerCacheSize = tc.cacheSize
			ts, srv := newLifecycleServer(t, opts)

			// inline posts with ?profile=1 and checks the header against
			// the inline event; it returns the decoded body.
			inline := func(route string, body map[string]any, want string) []byte {
				t.Helper()
				raw, resp := postRaw(t, ts, route+"?profile=1", body, nil)
				var ev struct {
					Profile *profile.Event `json:"profile"`
				}
				if err := json.Unmarshal(raw, &ev); err != nil || ev.Profile == nil {
					t.Fatalf("%s: no inline profile (%v): %s", route, err, raw)
				}
				if got := resp.Header.Get(cacheHeaderName); got != want || ev.Profile.Cache != got {
					t.Errorf("%s: %s = %q, wide event cache = %q; want both %q",
						route, cacheHeaderName, got, ev.Profile.Cache, want)
				}
				return raw
			}
			var q QueryResponse
			queryBody := map[string]any{"db": "ebiz", "q": "Columbus LCD"}
			for _, want := range tc.outcomes {
				if err := json.Unmarshal(inline("/api/query", queryBody, want), &q); err != nil {
					t.Fatal(err)
				}
			}
			exploreBody := map[string]any{"session": q.Session, "pick": 1}
			for _, want := range tc.outcomes {
				inline("/api/explore", exploreBody, want)
			}
			if tc.cacheSize == 0 {
				return
			}

			// recorded finds the flight recorder's copy of a request's event.
			recorded := func(id string) *profile.Event {
				t.Helper()
				for _, ev := range srv.rec.Recent() {
					if ev.ID == id {
						return ev
					}
				}
				t.Fatalf("request %s not in the flight recorder", id)
				return nil
			}
			for _, c := range []struct {
				route string
				body  map[string]any
			}{{"/api/query", queryBody}, {"/api/explore", exploreBody}} {
				_, r1 := postRaw(t, ts, c.route, c.body, nil)
				_, r2 := postRaw(t, ts, c.route, c.body, http.Header{"If-None-Match": {r1.Header.Get("ETag")}})
				if r2.StatusCode != http.StatusNotModified {
					t.Fatalf("%s: revalidation status %d, want 304", c.route, r2.StatusCode)
				}
				got, ev := r2.Header.Get(cacheHeaderName), recorded(r2.Header.Get("X-Request-ID"))
				if got != "revalidated" || ev.Cache != got {
					t.Errorf("%s: %s = %q, wide event cache = %q; want both revalidated",
						c.route, cacheHeaderName, got, ev.Cache)
				}
			}
		})
	}
}
