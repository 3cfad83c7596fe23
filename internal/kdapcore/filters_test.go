package kdapcore

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestParseFilterToken(t *testing.T) {
	cases := []struct {
		tok  string
		attr string
		op   FilterOp
		val  float64
		ok   bool
	}{
		{"Price>100", "Price", OpGT, 100, true},
		{"Price>=100.5", "Price", OpGE, 100.5, true},
		{"Income<20000", "Income", OpLT, 20000, true},
		{"Age<=65", "Age", OpLE, 65, true},
		{"Qty=3", "Qty", OpEQ, 3, true},
		{"Columbus", "", 0, 0, false},
		{">100", "", 0, 0, false},      // no attribute
		{"Price>", "", 0, 0, false},    // no value
		{"Price>abc", "", 0, 0, false}, // non-numeric value
		{"a=b=c", "", 0, 0, false},
	}
	for _, c := range cases {
		attr, op, val, ok, err := parseFilterToken(c.tok)
		if err != nil {
			t.Errorf("%q: %v", c.tok, err)
			continue
		}
		if ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.tok, ok, c.ok)
			continue
		}
		if ok && (attr != c.attr || op != c.op || val != c.val) {
			t.Errorf("%q parsed as (%q,%v,%g)", c.tok, attr, op, val)
		}
	}
}

func TestFilterOpMatches(t *testing.T) {
	if !OpGT.Matches(2, 1) || OpGT.Matches(1, 1) {
		t.Error("OpGT")
	}
	if !OpGE.Matches(1, 1) || OpGE.Matches(0.5, 1) {
		t.Error("OpGE")
	}
	if !OpLT.Matches(0, 1) || OpLT.Matches(1, 1) {
		t.Error("OpLT")
	}
	if !OpLE.Matches(1, 1) || OpLE.Matches(2, 1) {
		t.Error("OpLE")
	}
	if !OpEQ.Matches(3, 3) || OpEQ.Matches(3, 4) {
		t.Error("OpEQ")
	}
	if OpGT.String() != ">" || OpGE.String() != ">=" || OpEQ.String() != "=" {
		t.Error("operator symbols")
	}
	if FilterOp(99).Matches(1, 1) {
		t.Error("unknown op must match nothing")
	}
	// A filter's range constraint holds exactly the values its operator
	// accepts.
	for _, op := range []FilterOp{OpGT, OpGE, OpLT, OpLE, OpEQ, FilterOp(99)} {
		iv := NumericFilter{Op: op, Value: 1}.constraint().Range
		for _, x := range []float64{math.Inf(-1), 0, 1, 2, math.Inf(1), math.NaN()} {
			if iv.Contains(x) != op.Matches(x, 1) {
				t.Errorf("op %v: range %v holds %g: %v, Matches says %v", op, iv, x, iv.Contains(x), op.Matches(x, 1))
			}
		}
	}
}

func TestQueryWithFactColumnFilter(t *testing.T) {
	e := ebizEngine()
	plain, err := e.DifferentiateCtx(context.Background(), "Projectors")
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := e.DifferentiateCtx(context.Background(), "Projectors UnitPrice>1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) == 0 {
		t.Fatal("no nets with filter")
	}
	if len(filtered[0].Filters) != 1 || !filtered[0].Filters[0].OnFact {
		t.Fatalf("filters = %+v", filtered[0].Filters)
	}
	rp := subspaceRows(t, e, plain[0])
	rf := subspaceRows(t, e, filtered[0])
	if len(rf) == 0 || len(rf) >= len(rp) {
		t.Errorf("filter did not narrow: %d vs %d", len(rf), len(rp))
	}
	fact := ebiz.DB.Table("TRANSITEM")
	ci := fact.Schema().ColumnIndex("UnitPrice")
	for _, r := range rf {
		if fact.Row(r)[ci].AsFloat() <= 1000 {
			t.Fatalf("row %d violates UnitPrice>1000", r)
		}
	}
	// The signature distinguishes filtered interpretations.
	if plain[0].Signature() == filtered[0].Signature() {
		t.Error("filter not reflected in signature")
	}
}

func TestQueryWithDimensionAttrFilter(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Projectors Income>100000")
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) == 0 || len(nets[0].Filters) != 1 {
		t.Fatalf("nets/filters: %d", len(nets))
	}
	nf := nets[0].Filters[0]
	if nf.OnFact || nf.Attr.Table != "CUSTOMER" || nf.Role != "Customer" {
		t.Errorf("resolved filter = %+v", nf)
	}
	rows := subspaceRows(t, e, nets[0])
	if len(rows) == 0 {
		t.Fatal("filter emptied the subspace entirely")
	}
	// Exploring a filtered net still works (rollups share the filter).
	if _, err := e.ExploreCtx(context.Background(), nets[0], DefaultExploreOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestPurePredicateQuery(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "UnitPrice>1500")
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 1 || len(nets[0].Groups) != 0 {
		t.Fatalf("pure predicate nets = %+v", nets)
	}
	rows := subspaceRows(t, e, nets[0])
	if len(rows) == 0 || len(rows) >= e.Executor().FactLen() {
		t.Errorf("pure predicate slice = %d rows", len(rows))
	}
}

func TestUnknownFilterAttributeErrors(t *testing.T) {
	e := ebizEngine()
	if _, err := e.DifferentiateCtx(context.Background(), "Projectors Bogus>10"); err == nil {
		t.Error("unresolvable predicate accepted")
	}
	if _, err := e.DifferentiateCtx(context.Background(), "Projectors ProductName>10"); err == nil {
		t.Error("non-numeric fact filter should error or miss") // ProductName is not on the fact table: resolves nowhere
	}
}

func TestFilterSurvivesDrill(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Projectors UnitPrice>500")
	f, err := e.ExploreCtx(context.Background(), nets[0], DefaultExploreOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric || len(a.Instances) == 0 {
				continue
			}
			drilled, err := e.Drill(nets[0], a.Attr, a.Role, a.Instances[0].Value)
			if err != nil {
				t.Fatal(err)
			}
			if len(drilled.Filters) != 1 {
				t.Fatal("filter lost in drill")
			}
			return
		}
	}
	t.Skip("no categorical facet to drill")
}

// A predicate-shaped token whose number is not finite cannot slice
// anything: it is an error that names the token — not a filter no row
// passes (NaN), and not a keyword dropped unseen (1e999, beyond
// float64's range).
func TestNonFiniteFilterTokenErrors(t *testing.T) {
	e := ebizEngine()
	for _, tok := range []string{"UnitPrice>NaN", "UnitPrice<=Inf", "UnitPrice>-Inf", "UnitPrice>1e999", "Income<-1e400"} {
		nets, err := e.DifferentiateCtx(context.Background(), "Projectors "+tok)
		if err == nil || !strings.Contains(err.Error(), tok) {
			t.Errorf("%q: %d nets, err %v; want an error naming the token", tok, len(nets), err)
		}
	}
}
