package csvload

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/persist"
	"kdap/internal/relation"
)

// writeFixture materializes a small two-dimension mart as CSV + manifest.
func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("product.csv", `ProductKey,ProductName,Category,Price
1,Trail Bike,Bikes,900
2,City Bike,Bikes,500
3,Helmet,Accessories,40
4,Pump,Accessories,15
`)
	// Header order differs from manifest order on purpose; one empty
	// region cell exercises NULL loading.
	write("store.csv", `Region,StoreKey,StoreName
West,1,Alpha Store
East,2,Beta Store
,3,Gamma Store
`)
	write("sales.csv", `SaleKey,ProductKey,StoreKey,Qty,Amount
1,1,1,2,1800
2,2,1,1,500
3,3,2,5,200
4,4,2,3,45
5,1,2,1,900
6,3,3,2,80
`)
	write("manifest.json", `{
  "name": "TinyMart",
  "fact": "Sales",
  "strict": true,
  "tables": [
    {"name": "Product", "file": "product.csv", "key": "ProductKey",
     "columns": [
       {"name": "ProductKey", "kind": "int"},
       {"name": "ProductName", "kind": "string", "fullText": true},
       {"name": "Category", "kind": "string", "fullText": true},
       {"name": "Price", "kind": "float"}
     ]},
    {"name": "Store", "file": "store.csv", "key": "StoreKey",
     "columns": [
       {"name": "StoreKey", "kind": "int"},
       {"name": "StoreName", "kind": "string", "fullText": true},
       {"name": "Region", "kind": "string", "fullText": true}
     ]},
    {"name": "Sales", "file": "sales.csv", "key": "SaleKey",
     "columns": [
       {"name": "SaleKey", "kind": "int"},
       {"name": "ProductKey", "kind": "int"},
       {"name": "StoreKey", "kind": "int"},
       {"name": "Qty", "kind": "int"},
       {"name": "Amount", "kind": "float"}
     ],
     "foreignKeys": [
       {"column": "ProductKey", "refTable": "Product", "refColumn": "ProductKey"},
       {"column": "StoreKey", "refTable": "Store", "refColumn": "StoreKey"}
     ]}
  ],
  "dimensions": [
    {"name": "Product", "tables": ["Product"],
     "hierarchies": [{"name": "Cat", "levels": [
       {"table": "Product", "attr": "Category"},
       {"table": "Product", "attr": "ProductName"}]}],
     "groupBy": [
       {"table": "Product", "attr": "Category"},
       {"table": "Product", "attr": "Price"}]},
    {"name": "Store", "tables": ["Store"],
     "groupBy": [
       {"table": "Store", "attr": "Region"},
       {"table": "Store", "attr": "StoreName"}]}
  ]
}`)
	return dir
}

func TestLoadDirEndToEnd(t *testing.T) {
	dir := writeFixture(t)
	wh, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := wh.DB.Stats()
	if st.Tables != 3 || st.Rows != 4+3+6 {
		t.Errorf("stats = %+v", st)
	}
	// NULL cell loaded as NULL.
	store := wh.DB.Table("Store")
	ri := store.Lookup("StoreKey", relation.Int(3))
	if len(ri) != 1 || !store.Value(ri[0], "Region").IsNull() {
		t.Error("empty cell did not load as NULL")
	}
	// Header reordering respected.
	if store.Value(ri[0], "StoreName").Str() != "Gamma Store" {
		t.Error("column remapping wrong")
	}

	// Full KDAP flow over the loaded mart.
	fact := wh.DB.Table("Sales")
	e := kdapcore.NewEngine(wh.Graph, wh.Index,
		olap.ColumnMeasure(fact, "Amount"), olap.Sum)
	nets, err := e.DifferentiateCtx(context.Background(), "Bikes")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	f, err := e.ExploreCtx(context.Background(), nets[0], kdapcore.DefaultExploreOptions())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if f.SubspaceSize != 3 {
		t.Errorf("Bikes subspace = %d rows, want 3", f.SubspaceSize)
	}
	if f.TotalAggregate != 1800+500+900 {
		t.Errorf("Bikes revenue = %g", f.TotalAggregate)
	}
}

// TestLoadSegmentedMatchesResident loads the fixture twice — resident,
// and streamed into a warehouse directory that is then opened with its
// fact table paged — and requires identical facet bytes for the same
// interpretation.
func TestLoadSegmentedMatchesResident(t *testing.T) {
	dir := writeFixture(t)
	res, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dataset.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	whDir := t.TempDir()
	if err := persist.Write(whDir, m, 64, Rows(dir, m)); err != nil {
		t.Fatal(err)
	}
	seg, store, err := persist.Open(whDir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if seg.DB.Table("Sales").Pager() == nil {
		t.Fatal("fact table is not backed")
	}
	if seg.DB.Table("Product").Pager() != nil {
		t.Fatal("dimension table was backed")
	}
	mkEngine := func(wh *dataset.Warehouse) *kdapcore.Engine {
		return kdapcore.NewEngine(wh.Graph, wh.Index,
			olap.ColumnMeasure(wh.DB.Table("Sales"), "Amount"), olap.Sum)
	}
	er, es := mkEngine(res), mkEngine(seg)
	for _, q := range []string{"Bikes", "West", "Helmet", "Amount>400"} {
		rn, err := er.DifferentiateCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%q resident: %v", q, err)
		}
		sn, err := es.DifferentiateCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%q segmented: %v", q, err)
		}
		if len(rn) != len(sn) {
			t.Fatalf("%q: %d nets resident, %d segmented", q, len(rn), len(sn))
		}
		if len(rn) == 0 {
			continue
		}
		fr, errR := er.ExploreCtx(context.Background(), rn[0], kdapcore.DefaultExploreOptions())
		fs, errS := es.ExploreCtx(context.Background(), sn[0], kdapcore.DefaultExploreOptions())
		if (errR == nil) != (errS == nil) {
			t.Fatalf("%q: explore errors diverge: %v vs %v", q, errR, errS)
		}
		if errR != nil {
			continue
		}
		if !bytes.Equal(fr.Fingerprint(), fs.Fingerprint()) {
			t.Fatalf("%q: segmented facets differ from resident", q)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	dir := writeFixture(t)

	corrupt := func(name, content string) string {
		sub := t.TempDir()
		for _, f := range []string{"product.csv", "store.csv", "sales.csv", "manifest.json"} {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, f), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if name != "" {
			if err := os.WriteFile(filepath.Join(sub, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return sub
	}

	cases := map[string]string{
		"bad kind": `{"name":"x","fact":"Sales","tables":[
			{"name":"Sales","file":"sales.csv","columns":[{"name":"SaleKey","kind":"decimal"}]}],"dimensions":[]}`,
		"unknown field": `{"name":"x","fact":"Sales","bogus":1,"tables":[],"dimensions":[]}`,
		"no fact":       `{"name":"x","tables":[],"dimensions":[]}`,
	}
	for name, manifest := range cases {
		sub := corrupt("manifest.json", manifest)
		if _, err := LoadDir(sub); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Non-numeric cell in an int column.
	sub := corrupt("sales.csv", "SaleKey,ProductKey,StoreKey,Qty,Amount\nx,1,1,1,1\n")
	if _, err := LoadDir(sub); err == nil || !strings.Contains(err.Error(), "SaleKey") {
		t.Errorf("bad cell: %v", err)
	}

	// An integer a float64 column cannot hold exactly is refused, naming
	// table, column and value — resident loads and warehouse directories
	// alike.
	sub = corrupt("sales.csv", "SaleKey,ProductKey,StoreKey,Qty,Amount\n1,9007199254740993,1,1,1\n")
	wantInexact := func(err error) {
		t.Helper()
		if err == nil {
			t.Fatal("integer beyond 2^53 accepted")
		}
		for _, part := range []string{"Sales.ProductKey", "9007199254740993", "2^53"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("error %q does not name %q", err, part)
			}
		}
	}
	_, err := LoadDir(sub)
	wantInexact(err)
	m, err := dataset.ReadManifest(filepath.Join(sub, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantInexact(persist.Write(t.TempDir(), m, 64, Rows(sub, m)))

	// Dangling foreign key caught by strict validation.
	sub = corrupt("sales.csv", "SaleKey,ProductKey,StoreKey,Qty,Amount\n1,999,1,1,1\n")
	if _, err := LoadDir(sub); err == nil {
		t.Error("dangling FK accepted under strict")
	}

	// Missing CSV column.
	sub = corrupt("store.csv", "StoreKey,StoreName\n1,Only\n")
	if _, err := LoadDir(sub); err == nil {
		t.Error("missing column accepted")
	}

	// Missing file entirely.
	sub = corrupt("", "")
	os.Remove(filepath.Join(sub, "product.csv"))
	if _, err := LoadDir(sub); err == nil {
		t.Error("missing csv accepted")
	}

	// Missing manifest.
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("missing manifest accepted")
	}
}
