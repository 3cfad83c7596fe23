package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"kdap/internal/dataset"
)

// ebizFactRow builds one valid TRANSITEM row (the EBiz fact schema:
// ItemKey, TransKey, ProductKey, Quantity, UnitPrice) keyed past the
// seeded range.
func ebizFactRow(itemKey int) []any {
	return []any{itemKey, 1, 1, 2, 19.99}
}

func TestIngestAppendsRows(t *testing.T) {
	ts := newTestServer(t)

	rows := make([][]any, 3)
	for i := range rows {
		rows[i] = ebizFactRow(dataset.EBizFactCount + i + 1)
	}
	var resp IngestResponse
	r := post(t, ts, "/api/ingest", map[string]any{"db": "ebiz", "rows": rows}, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", r.StatusCode)
	}
	if resp.Start != dataset.EBizFactCount || resp.Rows != 3 {
		t.Fatalf("append landed at [%d,+%d), want [%d,+3)", resp.Start, resp.Rows, dataset.EBizFactCount)
	}
	if resp.FactRows != dataset.EBizFactCount+3 {
		t.Fatalf("factRows = %d, want %d", resp.FactRows, dataset.EBizFactCount+3)
	}
	if resp.IngestSeq != 1 {
		t.Fatalf("ingestSeq = %d, want 1", resp.IngestSeq)
	}
	if resp.NewTerms != 0 {
		t.Fatalf("newTerms = %d on a fact with no full-text columns", resp.NewTerms)
	}

	// The health probe and the fact-rows gauge read the live count.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Warehouses["ebiz"] != dataset.EBizFactCount+3 {
		t.Fatalf("healthz rows = %d, want %d", h.Warehouses["ebiz"], dataset.EBizFactCount+3)
	}
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	raw, _ := io.ReadAll(m.Body)
	for _, want := range []string{
		`kdap_ingest_batches_total{db="ebiz"} 1`,
		`kdap_ingest_rows_total{db="ebiz"} 3`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestIngestConcurrentResponses: with several writers, each response
// reports its own batch's state — FactRows is Start+Rows and IngestSeq
// is a sequence number no other batch was given — never the state a
// later batch left behind. Run under -race.
func TestIngestConcurrentResponses(t *testing.T) {
	ts := newTestServer(t)
	const writers, batches, rows = 4, 6, 3
	resps := make(chan IngestResponse, writers*batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([][]any, rows)
				for i := range batch {
					batch[i] = ebizFactRow(dataset.EBizFactCount + 1 + ((w*batches+b)*rows + i))
				}
				body, _ := json.Marshal(map[string]any{"db": "ebiz", "rows": batch})
				r, err := http.Post(ts.URL+"/api/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var resp IngestResponse
				err = json.NewDecoder(r.Body).Decode(&resp)
				r.Body.Close()
				if err != nil || r.StatusCode != http.StatusOK {
					t.Errorf("ingest: status %d, %v", r.StatusCode, err)
					return
				}
				resps <- resp
			}
		}(w)
	}
	wg.Wait()
	close(resps)
	seqs := map[uint64]bool{}
	for resp := range resps {
		if resp.Rows != rows || resp.FactRows != resp.Start+resp.Rows {
			t.Errorf("batch [%d,+%d) reports factRows %d", resp.Start, resp.Rows, resp.FactRows)
		}
		if seqs[resp.IngestSeq] {
			t.Errorf("ingestSeq %d reported twice", resp.IngestSeq)
		}
		seqs[resp.IngestSeq] = true
	}
	if !t.Failed() && len(seqs) != writers*batches {
		t.Errorf("%d distinct sequence numbers for %d batches", len(seqs), writers*batches)
	}
}

// TestIngestRejectsBadBatches: every rejection leaves the warehouse
// untouched — batches are atomic.
func TestIngestRejectsBadBatches(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		name    string
		body    map[string]any
		status  int
		errPart string
	}{
		{"unknown db", map[string]any{"db": "nope", "rows": [][]any{ebizFactRow(1)}}, http.StatusNotFound, ""},
		{"empty rows", map[string]any{"db": "ebiz", "rows": [][]any{}}, http.StatusBadRequest, ""},
		{"arity", map[string]any{"db": "ebiz", "rows": [][]any{{1, 2, 3}}}, http.StatusBadRequest, ""},
		{"kind", map[string]any{"db": "ebiz", "rows": [][]any{{1, 1, 1, "two", 19.99}}}, http.StatusBadRequest, ""},
		{"fractional int", map[string]any{"db": "ebiz", "rows": [][]any{{1, 1, 1, 2.5, 19.99}}}, http.StatusBadRequest, ""},
		{"atomic batch", map[string]any{"db": "ebiz", "rows": [][]any{
			ebizFactRow(dataset.EBizFactCount + 1), {1, 1, 1, "two", 19.99},
		}}, http.StatusBadRequest, ""},
		// A well-formed JSON integer that a float64 column would round.
		{"inexact int", map[string]any{"db": "ebiz", "rows": [][]any{
			ebizFactRow(dataset.EBizFactCount + 1), {int64(1)<<53 + 1, 1, 1, 2, 19.99},
		}}, http.StatusBadRequest, "TRANSITEM.ItemKey: integer 9007199254740993 is beyond ±2^53"},
	} {
		var e map[string]string
		r := post(t, ts, "/api/ingest", tc.body, &e)
		if r.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, r.StatusCode, tc.status)
		}
		if e["error"] == "" || !strings.Contains(e["error"], tc.errPart) {
			t.Errorf("%s: error %q, want one naming %q", tc.name, e["error"], tc.errPart)
		}
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Warehouses["ebiz"] != dataset.EBizFactCount {
		t.Fatalf("rejected batches changed the row count: %d", h.Warehouses["ebiz"])
	}
}

// TestIngestRetiresETags: a conditional tag minted before an append must
// not revalidate afterwards (client-side invalidation is conservative),
// while the server-side differentiate cache — untouched by a plain
// measure append — still serves the repeat as a hit.
func TestIngestRetiresETags(t *testing.T) {
	ts := newTestServer(t)
	body := map[string]any{"db": "ebiz", "q": "Columbus LCD"}

	_, r1 := postRaw(t, ts, "/api/query", body, nil)
	etag := r1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on query response")
	}
	if _, r := postRaw(t, ts, "/api/query", body, http.Header{"If-None-Match": {etag}}); r.StatusCode != http.StatusNotModified {
		t.Fatalf("pre-append revalidation: %d, want 304", r.StatusCode)
	}

	var ing IngestResponse
	if r := post(t, ts, "/api/ingest", map[string]any{
		"db": "ebiz", "rows": [][]any{ebizFactRow(dataset.EBizFactCount + 1)},
	}, &ing); r.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", r.StatusCode)
	}

	_, r2 := postRaw(t, ts, "/api/query", body, http.Header{"If-None-Match": {etag}})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("post-append conditional status = %d, want 200", r2.StatusCode)
	}
	if got := r2.Header.Get("ETag"); got == etag || got == "" {
		t.Fatalf("post-append ETag = %q, want a fresh tag (old %q)", got, etag)
	}
	// No new full-text terms landed, so the differentiate answer itself
	// survived the append and the 200 was served from cache.
	if got := r2.Header.Get("X-KDAP-Cache"); got != "hit" {
		t.Fatalf("post-append X-KDAP-Cache = %q, want hit", got)
	}
}

// TestIngestDeltaScopedEviction: an append is no longer delta-scoped —
// the one cached explore answer is evicted even though the appended row
// is not one it aggregates, the differentiate answer (no new full-text
// term) is kept, and the repeat explore is served miss, then hit.
func TestIngestDeltaScopedEviction(t *testing.T) {
	ts := newTestServer(t)
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &q)
	if q.Session == "" {
		t.Fatal("no session")
	}
	exploreBody := map[string]any{"session": q.Session, "pick": 1}
	if _, r := postRaw(t, ts, "/api/explore", exploreBody, nil); r.StatusCode != http.StatusOK {
		t.Fatalf("explore status %d", r.StatusCode)
	}

	var ing IngestResponse
	if r := post(t, ts, "/api/ingest", map[string]any{
		"db": "ebiz", "rows": [][]any{ebizFactRow(dataset.EBizFactCount + 1)},
	}, &ing); r.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", r.StatusCode)
	}
	if ing.EvictedAnswers != 1 || ing.KeptAnswers != 1 {
		t.Fatalf("evicted %d, kept %d; want the explore evicted and the differentiate kept",
			ing.EvictedAnswers, ing.KeptAnswers)
	}

	for _, want := range []string{"miss", "hit"} {
		_, r := postRaw(t, ts, "/api/explore", exploreBody, nil)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("post-append explore status %d", r.StatusCode)
		}
		if got := r.Header.Get(cacheHeaderName); got != want {
			t.Fatalf("post-append explore %s = %q, want %q", cacheHeaderName, got, want)
		}
	}
}
