package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/server"
)

func newPair(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	srv := server.New(map[string]*dataset.Warehouse{"ebiz": dataset.EBiz()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return New(ts.URL, nil), ts
}

func TestClientFullLoop(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()

	whs, err := c.Warehouses(ctx)
	if err != nil || len(whs) != 1 || whs[0] != "ebiz" {
		t.Fatalf("warehouses: %v %v", whs, err)
	}

	q, err := c.Query(ctx, "ebiz", "Columbus LCD")
	if err != nil || q.Session == "" || len(q.Interpretations) == 0 {
		t.Fatalf("query: %v", err)
	}
	if q.Interpretations[0].Rank != 1 {
		t.Error("rank numbering")
	}

	f, err := c.Explore(ctx, q.Session, 1, ExploreOptions{TopKAttrs: 2, TopKInstances: 3})
	if err != nil || f.SubspaceSize == 0 {
		t.Fatalf("explore: %v", err)
	}

	var cat *AttrFacet
	var num *AttrFacet
	for i := range f.Dimensions {
		for j := range f.Dimensions[i].Attributes {
			a := &f.Dimensions[i].Attributes[j]
			if a.Numeric && num == nil && len(a.Instances) > 1 {
				num = a
			}
			if !a.Numeric && cat == nil && len(a.Instances) > 0 {
				cat = a
			}
		}
	}
	if cat == nil {
		t.Fatal("no categorical facet")
	}
	sess2, err := c.Drill(ctx, q.Session, 1, *cat, cat.Instances[0].Label)
	if err != nil || sess2 == "" {
		t.Fatalf("drill: %v", err)
	}
	f2, err := c.Explore(ctx, sess2, 1, ExploreOptions{})
	if err != nil || f2.SubspaceSize == 0 || f2.SubspaceSize > f.SubspaceSize {
		t.Fatalf("explore after drill: %v (%d -> %d)", err, f.SubspaceSize, f2.SubspaceSize)
	}
	if num != nil {
		sess3, err := c.DrillRange(ctx, q.Session, 1, *num, num.Instances[0].Lo, num.Instances[0].Hi)
		if err != nil || sess3 == "" {
			t.Fatalf("drill range: %v", err)
		}
	}
}

func TestClientBellwetherAndSuggest(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	q, err := c.Query(ctx, "ebiz", "Projectors")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explore(ctx, q.Session, 1, ExploreOptions{Mode: "bellwether"}); err != nil {
		t.Fatalf("bellwether: %v", err)
	}
	sugg, err := c.Suggest(ctx, "ebiz", "Colombus")
	if err != nil || len(sugg["Colombus"]) == 0 {
		t.Fatalf("suggest: %v %v", sugg, err)
	}
}

func TestClientErrors(t *testing.T) {
	c, _ := newPair(t)
	ctx := context.Background()
	_, err := c.Query(ctx, "ghost", "x")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != 404 || apiErr.Error() == "" {
		t.Fatalf("expected 404 APIError, got %v", err)
	}
	if _, err := c.Explore(ctx, "nope", 1, ExploreOptions{}); err == nil {
		t.Error("ghost session accepted")
	}
	if _, err := c.Query(ctx, "ebiz", "  "); err == nil {
		t.Error("blank query accepted")
	}
	// Unreachable server.
	dead := New("http://127.0.0.1:1", nil)
	if _, err := dead.Warehouses(ctx); err == nil {
		t.Error("dead server reachable?")
	}
}

// A server error on the warehouse list comes back as an *APIError, not
// as an empty list.
func TestClientWarehousesServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	t.Cleanup(ts.Close)
	whs, err := New(ts.URL, nil).Warehouses(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Message != "overloaded" {
		t.Fatalf("Warehouses = %v, %v; want an *APIError with status 503", whs, err)
	}
}
