package server

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/persist"
)

// TestServeSegmentedWarehouse serves EBiz twice — resident and with the
// fact table disk-backed under a tiny cache budget — and requires the
// same interpretation list and explore body, plus the store's four
// kdap_segments_* paging families on /metrics with a live paged_in
// count beside the planner's three.
func TestServeSegmentedWarehouse(t *testing.T) {
	resident := dataset.EBiz()
	dir := t.TempDir()
	if err := persist.Save(dir, dataset.EBiz(), 256); err != nil {
		t.Fatal(err)
	}
	backed, store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	mk := func(wh *dataset.Warehouse) *httptest.Server {
		opts := DefaultOptions()
		opts.SegmentCacheMB = 1
		srv := NewWithOptions(map[string]*dataset.Warehouse{"ebiz": wh}, opts)
		srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts
	}
	rts, bts := mk(resident), mk(backed)

	run := func(ts *httptest.Server) (QueryResponse, string) {
		var qr QueryResponse
		post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &qr)
		if len(qr.Interpretations) == 0 {
			t.Fatal("no interpretations")
		}
		resp, err := http.Post(ts.URL+"/api/explore", "application/json",
			strings.NewReader(`{"session":"`+qr.Session+`","pick":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explore: %d %s", resp.StatusCode, body)
		}
		return qr, string(body)
	}
	rq, rb := run(rts)
	bq, bb := run(bts)
	if len(rq.Interpretations) != len(bq.Interpretations) {
		t.Fatalf("interpretations: %d resident, %d backed",
			len(rq.Interpretations), len(bq.Interpretations))
	}
	for i := range rq.Interpretations {
		if rq.Interpretations[i].Signature != bq.Interpretations[i].Signature {
			t.Fatalf("interpretation %d signature diverges", i)
		}
	}
	if rb != bb {
		t.Fatalf("explore bodies diverge:\nresident: %s\nbacked:   %s", rb, bb)
	}

	resp, err := http.Get(bts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"kdap_segments_resident_total",
		"kdap_segments_paged_in_total",
		"kdap_segments_evicted_total",
		"kdap_segments_skipped_bloom_total",
		"kdap_segments_scanned_total",
		"kdap_segments_skipped_zone_total",
		"kdap_segments_skipped_bits_total",
	} {
		if !strings.Contains(string(metrics), fam) {
			t.Errorf("metrics missing %s", fam)
		}
	}
	if store.Stats().PagedIn == 0 {
		t.Error("backed serving paged nothing in")
	}

	// The resident server carries the planner's families (segments are
	// the row-space unit of every table) but none of the paging ones.
	resp2, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rm, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(rm), "kdap_segments_scanned_total") {
		t.Error("resident server lacks the planner's segment families")
	}
	for _, fam := range []string{"kdap_segments_resident_total", "kdap_segments_paged_in_total",
		"kdap_segments_evicted_total", "kdap_segments_skipped_bloom_total"} {
		if strings.Contains(string(rm), fam) {
			t.Errorf("resident server exposes paging family %s", fam)
		}
	}
}
