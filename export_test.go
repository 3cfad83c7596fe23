package kdap

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"
)

func TestWriteFacetsCSV(t *testing.T) {
	// "projector" selects a subspace whose facets carry both a promoted
	// hit attribute and bucketed numeric attributes, so every CSV row
	// shape below is exercised.
	e := NewEngine(EBiz())
	nets, _ := e.DifferentiateCtx(context.Background(), "projector")
	f, err := e.ExploreCtx(context.Background(), nets[0], DefaultExploreOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteFacetsCSV(&sb, f); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV: %v", err)
	}
	if len(records) < 2 {
		t.Fatalf("only %d records", len(records))
	}
	if len(records[0]) != 11 || records[0][0] != "dimension" {
		t.Errorf("header = %v", records[0])
	}
	// Every data row has the full width and a parsable aggregate.
	for i, rec := range records[1:] {
		if len(rec) != 11 {
			t.Fatalf("row %d has %d fields", i+1, len(rec))
		}
		if rec[9] == "" {
			t.Errorf("row %d missing aggregate", i+1)
		}
	}
	// Promoted rows leave attr_score empty; numeric rows carry lo/hi.
	var sawPromoted, sawNumeric bool
	for _, rec := range records[1:] {
		if rec[3] == "true" && rec[5] == "" {
			sawPromoted = true
		}
		if rec[4] == "true" && rec[7] != "" && rec[8] != "" {
			sawNumeric = true
		}
	}
	if !sawPromoted || !sawNumeric {
		t.Errorf("promoted=%v numeric=%v rows missing", sawPromoted, sawNumeric)
	}
}

func TestSchemaDOT(t *testing.T) {
	dot := SchemaDOT(EBiz())
	for _, want := range []string{
		"digraph schema",
		`"TRANSITEM" [shape=doubleoctagon]`,
		`label="Product"`,
		`"TRANS" -> "STORE" [label="StoreKey"]`,
		`"TRANS" -> "ACCOUNT" [label="BuyerKey"]`,
		`"TRANS" -> "ACCOUNT" [label="SellerKey"]`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// A shared table (LOC) renders exactly once as a node declaration.
	if n := strings.Count(dot, `    "LOC";`); n != 1 {
		t.Errorf("LOC declared %d times", n)
	}
	// Balanced braces — parseable by dot.
	if strings.Count(dot, "{") != strings.Count(dot, "}") {
		t.Error("unbalanced braces")
	}
}
