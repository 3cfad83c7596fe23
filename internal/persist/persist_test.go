package persist

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
)

// roundTrip writes wh to a warehouse directory and opens it.
func roundTrip(t *testing.T, wh *dataset.Warehouse) *dataset.Warehouse {
	t.Helper()
	dir := t.TempDir()
	if err := Save(dir, wh, 0); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, store, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	return got
}

func TestRoundTripPreservesData(t *testing.T) {
	orig := dataset.EBiz()
	got := roundTrip(t, orig)

	so, sg := orig.DB.Stats(), got.DB.Stats()
	if so.Tables != sg.Tables || so.Rows != sg.Rows || so.FullTextColumns != sg.FullTextColumns {
		t.Errorf("stats differ: %+v vs %+v", so, sg)
	}
	if err := got.DB.Validate(true); err != nil {
		t.Errorf("reloaded db fails integrity: %v", err)
	}
	// Row-level spot check.
	of, gf := orig.DB.Table("TRANSITEM"), got.DB.Table("TRANSITEM")
	for i := 0; i < of.Len(); i += 397 {
		ro, rg := of.Row(i), gf.Row(i)
		for c := range ro {
			if !ro[c].Equal(rg[c]) {
				t.Fatalf("row %d col %d: %#v vs %#v", i, c, ro[c], rg[c])
			}
		}
	}
}

func TestRoundTripPreservesGraphSemantics(t *testing.T) {
	orig := dataset.EBiz()
	got := roundTrip(t, orig)

	if len(got.Graph.Dimensions()) != len(orig.Graph.Dimensions()) {
		t.Fatal("dimension count differs")
	}
	// The three LOC join paths — including the Buyer/Seller labels — must
	// survive.
	paths := got.Graph.JoinPaths("LOC")
	if len(paths) != 3 {
		t.Fatalf("LOC paths after reload = %d", len(paths))
	}
	roles := map[string]bool{}
	for _, p := range paths {
		roles[p.Role] = true
	}
	if !roles["Buyer"] || !roles["Seller"] || !roles["Store"] {
		t.Errorf("roles lost: %v", roles)
	}
}

// End-to-end equivalence: the same query over original and reloaded
// warehouses yields identical ranked interpretations and subspaces.
func TestRoundTripQueryEquivalence(t *testing.T) {
	orig := dataset.EBiz()
	got := roundTrip(t, orig)

	mk := func(wh *dataset.Warehouse) *kdapcore.Engine {
		fact := wh.DB.Table("TRANSITEM")
		return kdapcore.NewEngine(wh.Graph, wh.Index,
			olap.ProductMeasure(fact, "revenue", "UnitPrice", "Quantity"), olap.Sum)
	}
	eo, eg := mk(orig), mk(got)
	for _, q := range []string{"Columbus LCD", "San Jose", "Projectors UnitPrice>1000"} {
		no, err1 := eo.DifferentiateCtx(context.Background(), q)
		ng, err2 := eg.DifferentiateCtx(context.Background(), q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: %v / %v", q, err1, err2)
		}
		if len(no) != len(ng) {
			t.Fatalf("%q: %d vs %d nets", q, len(no), len(ng))
		}
		for i := range no {
			if no[i].Signature() != ng[i].Signature() || no[i].Score != ng[i].Score {
				t.Fatalf("%q net %d differs:\n  %s\n  %s", q, i, no[i].Signature(), ng[i].Signature())
			}
		}
		if len(no) > 0 {
			ro, err1 := eo.SubspaceRowsCtx(context.Background(), no[0])
			rg, err2 := eg.SubspaceRowsCtx(context.Background(), ng[0])
			if err1 != nil || err2 != nil || len(ro) != len(rg) {
				t.Fatalf("%q: subspaces differ: %d vs %d (%v / %v)", q, len(ro), len(rg), err1, err2)
			}
		}
	}
}

// TestLoadRejectsGarbage: Open refuses a directory whose manifest.json
// is not a warehouse manifest, and one that has none.
func TestLoadRejectsGarbage(t *testing.T) {
	for _, manifest := range []string{"not a manifest", "", `{"name":"x","fact":"F","bogus":1}`} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir); err == nil {
			t.Errorf("manifest %q accepted", manifest)
		}
	}
	if _, _, err := Open(t.TempDir()); err == nil {
		t.Error("directory without a manifest accepted")
	}
}
