package kdap

import (
	"context"
	"strings"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	wh := EBiz()
	e := NewEngine(wh)
	nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) == 0 {
		t.Fatal("no interpretations")
	}
	f, err := e.ExploreCtx(context.Background(), nets[0], DefaultExploreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.SubspaceSize == 0 || len(f.Dimensions) == 0 {
		t.Fatal("empty facets")
	}
	out := RenderFacets(f)
	if !strings.Contains(out, "Sub-dataspace") {
		t.Error("facet rendering missing header")
	}
	listing := RenderStarNets(nets, 5)
	if !strings.Contains(listing, "1. [") {
		t.Errorf("net rendering: %q", listing)
	}
}

func TestRenderStarNetsTruncation(t *testing.T) {
	e := NewEngine(EBiz())
	nets, _ := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if len(nets) < 3 {
		t.Skip("not enough nets")
	}
	out := RenderStarNets(nets, 2)
	if !strings.Contains(out, "more interpretations") {
		t.Error("limit footer missing")
	}
	full := RenderStarNets(nets, 0)
	if strings.Contains(full, "more interpretations") {
		t.Error("unlimited rendering should not truncate")
	}
}

func TestSnippet(t *testing.T) {
	cases := []struct {
		in   string
		max  int
		want string
	}{
		{"short", 10, "short"},
		{"exactly-ten", 11, "exactly-ten"},
		{"a long description about mountain bikes", 20, "a long description…"},
		{"nospacesatallinthisverylongword", 10, "nospacesa…"},
		{"x", 1, "x"},
	}
	for _, c := range cases {
		if got := Snippet(c.in, c.max); got != c.want {
			t.Errorf("Snippet(%q, %d) = %q, want %q", c.in, c.max, got, c.want)
		}
	}
}

func TestNewEngineWithMeasure(t *testing.T) {
	wh := EBiz()
	e := NewEngineWithMeasure(wh, RevenueMeasure(wh), Avg)
	if e.Agg() != Avg {
		t.Error("aggregation not wired")
	}
	nets, err := e.DifferentiateCtx(context.Background(), "Projectors")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v, %d nets", err, len(nets))
	}
	f, err := e.ExploreCtx(context.Background(), nets[0], DefaultExploreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalAggregate <= 0 {
		t.Errorf("average revenue = %g", f.TotalAggregate)
	}
}

func TestSharedWarehousesAreSingletons(t *testing.T) {
	if AWOnline() != AWOnline() {
		t.Error("AWOnline should be cached")
	}
	if AWReseller() != AWReseller() {
		t.Error("AWReseller should be cached")
	}
}

func TestMergeIntervalsPublic(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	res := MergeIntervals(x, y, DefaultAnnealConfig())
	if res.ErrPct > 50 {
		t.Errorf("perfectly correlated series should merge well: %+v", res)
	}
}

func TestBellwetherModePublic(t *testing.T) {
	e := NewEngine(AWOnline())
	nets, err := e.DifferentiateCtx(context.Background(), "France Clothing")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v", err)
	}
	opts := DefaultExploreOptions()
	opts.Mode = Bellwether
	f, err := e.ExploreCtx(context.Background(), nets[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Dimensions) == 0 {
		t.Fatal("no facets in bellwether mode")
	}
}

func TestRenderStarNetsValueTruncation(t *testing.T) {
	e := NewEngine(AWOnline())
	// "Mountain" alone matches many product names: the rendering must
	// truncate long hit lists with a "…+N" marker.
	nets, err := e.DifferentiateCtx(context.Background(), "Mountain")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v", err)
	}
	out := RenderStarNets(nets, 10)
	if !strings.Contains(out, "…+") {
		t.Errorf("long hit lists not truncated:\n%s", out)
	}
}

func TestPublicSessionFlow(t *testing.T) {
	s := NewSession(NewEngine(EBiz()), DefaultExploreOptions())
	if _, err := s.Query("Columbus LCD"); err != nil {
		t.Fatal(err)
	}
	f, err := s.Pick(1)
	if err != nil || f.SubspaceSize == 0 {
		t.Fatalf("pick: %v", err)
	}
	if s.Engine() == nil || s.Options().TopKAttrs == 0 {
		t.Error("session accessors")
	}
}

func TestPublicDiscover(t *testing.T) {
	e := NewEngine(EBiz())
	out, err := e.Discover(context.Background(), AttrRef{Table: "PGROUP", Attr: "GroupName"}, "Product", Surprise, 3)
	if err != nil || len(out) == 0 {
		t.Fatalf("discover: %v", err)
	}
}
