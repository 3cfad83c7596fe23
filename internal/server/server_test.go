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
	"kdap/internal/fulltext"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newTestServerAndHandler(t)
	return ts
}

func newTestServerAndHandler(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(map[string]*dataset.Warehouse{"ebiz": dataset.EBiz()})
	// Keep access logs out of the test output.
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func post(t *testing.T, ts *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
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

func TestHealthAndWarehouses(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Version == "" || h.GoVersion == "" {
		t.Errorf("health shape: %+v", h)
	}
	if h.UptimeSecs < 0 {
		t.Errorf("negative uptime: %v", h.UptimeSecs)
	}
	if h.Warehouses["ebiz"] <= 0 {
		t.Errorf("fact rows missing: %+v", h.Warehouses)
	}
	if h.ResidentBytes["ebiz"] <= 0 {
		t.Errorf("resident column bytes missing: %+v", h.ResidentBytes)
	}
	if _, ok := h.ExecutorBytes["ebiz"]; !ok {
		t.Errorf("executor column bytes missing: %+v", h.ExecutorBytes)
	}

	var whs map[string][]string
	r2, err := http.Get(ts.URL + "/api/warehouses")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&whs); err != nil {
		t.Fatal(err)
	}
	if len(whs["warehouses"]) != 1 || whs["warehouses"][0] != "ebiz" {
		t.Errorf("warehouses = %v", whs)
	}
}

func TestQueryExploreDrillFlow(t *testing.T) {
	ts := newTestServer(t)

	var q QueryResponse
	resp := post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus LCD"}, &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if q.Session == "" || len(q.Interpretations) == 0 {
		t.Fatalf("query response: %+v", q)
	}
	if q.Interpretations[0].Rank != 1 || len(q.Interpretations[0].Groups) == 0 {
		t.Errorf("interpretation shape: %+v", q.Interpretations[0])
	}

	var f FacetsDTO
	resp = post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 1}, &f)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status %d", resp.StatusCode)
	}
	if f.SubspaceSize == 0 || len(f.Dimensions) == 0 {
		t.Fatalf("facets: %+v", f)
	}

	// Find a categorical instance and drill into it.
	var dr drillRequest
	dr.Session = q.Session
	dr.Pick = 1
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if !a.Numeric && len(a.Instances) > 0 {
				dr.Table, dr.Attr, dr.Role, dr.Value = a.Table, a.Attr, a.Role, a.Instances[0].Label
			}
		}
	}
	if dr.Table == "" {
		t.Fatal("nothing to drill")
	}
	var drilled map[string]string
	resp = post(t, ts, "/api/drill", dr, &drilled)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill status %d", resp.StatusCode)
	}
	if drilled["session"] == "" || drilled["session"] == q.Session {
		t.Errorf("drill session: %v", drilled)
	}
	var f2 FacetsDTO
	resp = post(t, ts, "/api/explore", map[string]any{"session": drilled["session"], "pick": 1}, &f2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore after drill: %d", resp.StatusCode)
	}
	if f2.SubspaceSize == 0 || f2.SubspaceSize > f.SubspaceSize {
		t.Errorf("drill did not narrow: %d -> %d", f.SubspaceSize, f2.SubspaceSize)
	}
}

func TestExploreBellwetherMode(t *testing.T) {
	ts := newTestServer(t)
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Projectors"}, &q)
	var f FacetsDTO
	resp := post(t, ts, "/api/explore", map[string]any{
		"session": q.Session, "pick": 1, "mode": "bellwether", "topKAttrs": 2, "topKInstances": 3,
	}, &f)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, d := range f.Dimensions {
		nonPromoted := 0
		for _, a := range d.Attributes {
			if !a.Promoted {
				nonPromoted++
			}
			if len(a.Instances) > 3 {
				t.Errorf("instance cap ignored: %d", len(a.Instances))
			}
		}
		if nonPromoted > 2 {
			t.Errorf("attr cap ignored: %d", nonPromoted)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	ts := newTestServer(t)

	cases := []struct {
		path   string
		body   string
		status int
	}{
		{"/api/query", `{"db":"nope","q":"x"}`, http.StatusNotFound},
		{"/api/query", `{"db":"ebiz","q":"   "}`, http.StatusBadRequest},
		{"/api/query", `{bad json`, http.StatusBadRequest},
		{"/api/query", `{"db":"ebiz","q":"x","unknown":1}`, http.StatusBadRequest},
		{"/api/explore", `{"session":"ghost","pick":1}`, http.StatusNotFound},
		{"/api/drill", `{"session":"ghost","pick":1}`, http.StatusNotFound},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.path, c.body, resp.StatusCode, c.status)
		}
	}

	// Out-of-range pick on a real session.
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus"}, &q)
	resp := post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 999}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad pick: status %d", resp.StatusCode)
	}
	// Unknown mode.
	resp = post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 1, "mode": "zzz"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status %d", resp.StatusCode)
	}
	// Wrong method.
	r, err := http.Get(ts.URL + "/api/query")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET query: status %d", r.StatusCode)
	}
}

func TestNoMatchQueryReturnsEmptyInterpretations(t *testing.T) {
	ts := newTestServer(t)
	var q QueryResponse
	resp := post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "zzzz qqqq"}, &q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(q.Interpretations) != 0 {
		t.Errorf("expected no interpretations, got %d", len(q.Interpretations))
	}
}

func TestSessionEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.SessionCap = 3
	srv := NewWithOptions(map[string]*dataset.Warehouse{"ebiz": dataset.EBiz()}, opts)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var first QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Columbus"}, &first)
	for i := 0; i < 5; i++ {
		post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Projectors"}, &QueryResponse{})
	}
	st := srv.sessions.Stats()
	if st.Len > 3 {
		t.Errorf("session store grew past cap: %d", st.Len)
	}
	if st.Evictions == 0 {
		t.Error("no CLOCK evictions recorded past the cap")
	}
}

func TestDrillRangeOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "ebiz", "q": "Projectors"}, &q)
	var f FacetsDTO
	post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 1}, &f)

	var dr drillRequest
	dr.Session, dr.Pick = q.Session, 1
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric && len(a.Instances) > 1 {
				dr.Table, dr.Attr, dr.Role = a.Table, a.Attr, a.Role
				dr.Numeric = true
				dr.Lo, dr.Hi = a.Instances[0].Lo, a.Instances[0].Hi
			}
		}
	}
	if !dr.Numeric {
		t.Skip("no numeric facet")
	}
	var drilled map[string]string
	resp := post(t, ts, "/api/drill", dr, &drilled)
	if resp.StatusCode != http.StatusOK || drilled["session"] == "" {
		t.Fatalf("range drill: %d %v", resp.StatusCode, drilled)
	}
	var f2 FacetsDTO
	post(t, ts, "/api/explore", map[string]any{"session": drilled["session"], "pick": 1}, &f2)
	if f2.SubspaceSize == 0 || f2.SubspaceSize >= f.SubspaceSize {
		t.Errorf("range drill did not narrow: %d -> %d", f.SubspaceSize, f2.SubspaceSize)
	}
}

func TestUIPage(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"<title>KDAP</title>", "/api/query", "/api/explore", "/api/drill"} {
		if !strings.Contains(body, want) {
			t.Errorf("UI missing %q", want)
		}
	}
	// Unknown paths are not swallowed by the root handler.
	r2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d", r2.StatusCode)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Suggestions map[string][]string `json:"suggestions"`
	}
	resp := post(t, ts, "/api/suggest", map[string]any{"db": "ebiz", "q": "Colombus LCD"}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Suggestions["Colombus"]) == 0 {
		t.Errorf("no suggestion for typo: %v", out.Suggestions)
	}
	if _, ok := out.Suggestions["LCD"]; ok {
		t.Error("matched keyword suggested")
	}
	resp = post(t, ts, "/api/suggest", map[string]any{"db": "ghost", "q": "x"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown db: %d", resp.StatusCode)
	}
}

// A drill naming a column that does not exist (or a non-numeric one for
// a range drill) must be refused at drill time with a 400 naming the
// attribute — not accepted and left to blow up the session's next
// explore inside the scan.
func TestDrillRejectsBadAttributes(t *testing.T) {
	srv := New(map[string]*dataset.Warehouse{"aw": dataset.AWOnline()})
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var q QueryResponse
	post(t, ts, "/api/query", map[string]any{"db": "aw", "q": "Road Bikes"}, &q)
	if len(q.Interpretations) == 0 {
		t.Fatal("no interpretations")
	}
	for name, body := range map[string]map[string]any{
		"unknown on fact":      {"numeric": true, "table": "FactInternetSales", "attr": "Bogus", "lo": 1, "hi": 2},
		"unknown on dimension": {"numeric": true, "table": "DimProduct", "attr": "Bogus", "role": "Product", "lo": 1, "hi": 2},
		"non-numeric":          {"numeric": true, "table": "DimProduct", "attr": "ModelName", "role": "Product", "lo": 1, "hi": 2},
		"unknown categorical":  {"table": "DimProduct", "attr": "Bogus", "role": "Product", "value": "x"},
	} {
		body["session"], body["pick"] = q.Session, 1
		var out map[string]string
		resp := post(t, ts, "/api/drill", body, &out)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, resp.StatusCode, out)
			continue
		}
		if want := body["attr"].(string); !strings.Contains(out["error"], want) {
			t.Errorf("%s: error %q does not name %q", name, out["error"], want)
		}
	}
	// The session is still usable.
	var f FacetsDTO
	if resp := post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 1}, &f); resp.StatusCode != http.StatusOK || f.SubspaceSize == 0 {
		t.Fatalf("explore after refused drills: %d, %d rows", resp.StatusCode, f.SubspaceSize)
	}
}

// quantityOnlyMart is a one-dimension warehouse whose fact table has a
// Quantity column but no UnitPrice: revenue is undefined there, and the
// paper's measure falls back to a row count.
func quantityOnlyMart(t *testing.T) *dataset.Warehouse {
	t.Helper()
	db := relation.NewDatabase("qty")
	shop := db.MustCreateTable(relation.MustSchema("Shop", []relation.Column{
		{Name: "ShopKey", Kind: relation.KindInt},
		{Name: "City", Kind: relation.KindString, FullText: true},
	}, "ShopKey", nil))
	shop.MustAppend(relation.Int(1), relation.String("Lisbon"))
	shop.MustAppend(relation.Int(2), relation.String("Porto"))
	sales := db.MustCreateTable(relation.MustSchema("Sales", []relation.Column{
		{Name: "ShopKey", Kind: relation.KindInt},
		{Name: "Quantity", Kind: relation.KindInt},
	}, "", []relation.ForeignKey{{Column: "ShopKey", RefTable: "Shop", RefColumn: "ShopKey"}}))
	for i := 0; i < 6; i++ {
		sales.MustAppend(relation.Int(int64(i%2+1)), relation.Int(int64(i+1)))
	}
	g := schemagraph.New(db, "Sales")
	if err := g.AddDimension(&schemagraph.Dimension{
		Name: "Shop", Tables: []string{"Shop"},
		GroupBy: []schemagraph.AttrRef{{Table: "Shop", Attr: "City"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	ix := fulltext.NewIndex()
	ix.IndexDatabase(db)
	ix.Freeze()
	return &dataset.Warehouse{DB: db, Graph: g, Index: ix}
}

// A fact table with a quantity column but no unit price is served under
// the row-count measure, as kdap.NewEngine serves it, instead of
// panicking at startup inside the product measure.
func TestServeQuantityWithoutUnitPrice(t *testing.T) {
	srv := NewWithOptions(map[string]*dataset.Warehouse{"qty": quantityOnlyMart(t)}, DefaultOptions())
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var q QueryResponse
	if resp := post(t, ts, "/api/query", map[string]any{"db": "qty", "q": "Lisbon"}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if len(q.Interpretations) == 0 {
		t.Fatal("no interpretations for Lisbon")
	}
	var f FacetsDTO
	if resp := post(t, ts, "/api/explore", map[string]any{"session": q.Session, "pick": 1}, &f); resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status %d", resp.StatusCode)
	}
	if f.SubspaceSize != 3 || f.TotalAggregate != 3 {
		t.Errorf("Lisbon: %d facts, aggregate %g; want 3 facts counted", f.SubspaceSize, f.TotalAggregate)
	}
}

// Out of the box every request runs under a deadline: a request parked
// behind a stuck answer-cache fill or distribution leader must give up.
func TestDefaultOptionsHaveDeadline(t *testing.T) {
	if d := DefaultOptions().QueryTimeout; d <= 0 {
		t.Fatalf("DefaultOptions().QueryTimeout = %v, want a positive deadline", d)
	}
}
