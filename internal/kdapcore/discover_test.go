package kdapcore

import (
	"context"
	"testing"

	"kdap/internal/schemagraph"
)

func TestDiscoverRanksSubspaces(t *testing.T) {
	e := ebizEngine()
	level := schemagraph.AttrRef{Table: "PGROUP", Attr: "GroupName"}
	out, err := e.Discover(context.Background(), level, "Product", Surprise, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no discoveries")
	}
	if len(out) > 5 {
		t.Errorf("topK ignored: %d", len(out))
	}
	for i, d := range out {
		if d.Rows <= 0 || d.Aggregate <= 0 {
			t.Errorf("discovery %d: rows=%d agg=%g", i, d.Rows, d.Aggregate)
		}
		if d.BestAttr == (schemagraph.AttrRef{}) {
			t.Errorf("discovery %d has no best attribute", i)
		}
		if i > 0 && out[i].Score > out[i-1].Score {
			t.Error("discoveries not sorted")
		}
	}
}

func TestDiscoverCityLevel(t *testing.T) {
	e := ebizEngine()
	level := schemagraph.AttrRef{Table: "LOC", Attr: "City"}
	out, err := e.Discover(context.Background(), level, "Store", Surprise, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("discoveries = %d", len(out))
	}
	// The dataset skews Columbus toward televisions and California
	// cities toward LCD gear, so at least one of the skewed cities should
	// surface among the most surprising.
	skewed := map[string]bool{
		"Columbus": true, "San Jose": true, "San Francisco": true, "Los Angeles": true,
	}
	found := false
	for _, d := range out {
		if skewed[d.Value.Text()] {
			found = true
		}
	}
	if !found {
		t.Errorf("no skewed city among top discoveries: %v", out)
	}
}

func TestDiscoverErrors(t *testing.T) {
	e := ebizEngine()
	level := schemagraph.AttrRef{Table: "PGROUP", Attr: "GroupName"}
	if _, err := e.Discover(context.Background(), level, "Product", Surprise, 0); err == nil {
		t.Error("topK=0 accepted")
	}
	if _, err := e.Discover(context.Background(), schemagraph.AttrRef{Table: "GHOST", Attr: "X"}, "Product", Surprise, 3); err == nil {
		t.Error("missing table accepted")
	}
}

func TestDiscoverBellwether(t *testing.T) {
	e := ebizEngine()
	level := schemagraph.AttrRef{Table: "LOC", Attr: "State"}
	out, err := e.Discover(context.Background(), level, "Store", Bellwether, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no bellwether discoveries")
	}
	// Bellwether scores are correlations; top ones should be positive.
	if out[0].Score <= 0 {
		t.Errorf("top bellwether score %g", out[0].Score)
	}
}
