package olap

import (
	"context"
	"math"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// dirtyWarehouse builds a small star schema with deliberately broken
// rows: a fact with a dangling product key, a fact with a NULL product
// key, a fact with a NULL measure, a product with a dangling group key,
// and two products holding the same key. Real warehouses have them; the
// executor must degrade gracefully (drop the unlinkable rows, credit a
// fact to one dimension row, skip a NULL measure) rather than panic or
// miscount.
func dirtyWarehouse(t *testing.T) (*schemagraph.Graph, *Executor) {
	t.Helper()
	db := relation.NewDatabase("dirty")
	group := db.MustCreateTable(relation.MustSchema("Grp", []relation.Column{
		{Name: "GrpKey", Kind: relation.KindInt},
		{Name: "GrpName", Kind: relation.KindString, FullText: true},
	}, "GrpKey", nil))
	prod := db.MustCreateTable(relation.MustSchema("Prod", []relation.Column{
		{Name: "ProdKey", Kind: relation.KindInt},
		{Name: "Name", Kind: relation.KindString, FullText: true},
		{Name: "GrpKey", Kind: relation.KindInt},
	}, "ProdKey", []relation.ForeignKey{{Column: "GrpKey", RefTable: "Grp", RefColumn: "GrpKey"}}))
	fact := db.MustCreateTable(relation.MustSchema("Fact", []relation.Column{
		{Name: "FactKey", Kind: relation.KindInt},
		{Name: "ProdKey", Kind: relation.KindInt},
		{Name: "Amount", Kind: relation.KindFloat},
	}, "FactKey", []relation.ForeignKey{{Column: "ProdKey", RefTable: "Prod", RefColumn: "ProdKey"}}))

	group.MustAppend(relation.Int(1), relation.String("Widgets"))
	prod.MustAppend(relation.Int(1), relation.String("Widget A"), relation.Int(1))
	prod.MustAppend(relation.Int(2), relation.String("Widget B"), relation.Int(999))   // dangling group
	prod.MustAppend(relation.Int(1), relation.String("Widget A bis"), relation.Int(1)) // duplicated key
	fact.MustAppend(relation.Int(1), relation.Int(1), relation.Float(10))
	fact.MustAppend(relation.Int(2), relation.Int(2), relation.Float(20))
	fact.MustAppend(relation.Int(3), relation.Int(777), relation.Float(40)) // dangling product
	fact.MustAppend(relation.Int(4), relation.Null(), relation.Float(80))   // NULL product
	fact.MustAppend(relation.Int(5), relation.Int(2), relation.Null())      // NULL measure

	g := schemagraph.New(db, "Fact")
	if err := g.AddDimension(&schemagraph.Dimension{
		Name: "Product", Tables: []string{"Prod", "Grp"},
		GroupBy: []schemagraph.AttrRef{{Table: "Grp", Attr: "GrpName"}, {Table: "Prod", Attr: "Name"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	// Non-strict integrity passes (the schema is fine, the data dirty).
	if err := db.Validate(false); err != nil {
		t.Fatal(err)
	}
	return g, NewExecutor(g)
}

func TestDirtyDataSemijoin(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	path, ok := g.PathFromFact("Prod", "Product")
	if !ok {
		t.Fatal("no path")
	}
	rows := mustFactRows(t, ex, []Constraint{{
		Table: "Prod", Attr: "Name",
		Values: []relation.Value{relation.String("Widget A"), relation.String("Widget B")},
		Path:   path,
	}})
	// Only facts 1, 2 and 5 link to real products.
	if len(rows) != 3 || rows[0] != 0 || rows[1] != 1 || rows[2] != 4 {
		t.Errorf("rows = %v", rows)
	}
}

// A fact whose key matches several dimension rows belongs to the first
// of them, in a subspace exactly as in a group-by: both read the same
// fact→dimension mapping. (The forward hash-index semijoin this replaced
// counted the fact under both rows, so a subspace and its own group-by
// disagreed.)
func TestDirtyDataDuplicateKeyCreditsFirstRow(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	path, _ := g.PathFromFact("Prod", "Product")
	factRows := func(names ...string) []int {
		c := Constraint{Table: "Prod", Attr: "Name", Path: path}
		for _, n := range names {
			c.Values = append(c.Values, relation.String(n))
		}
		return mustFactRows(t, ex, []Constraint{c})
	}
	if rows := factRows("Widget A"); len(rows) != 1 || rows[0] != 0 {
		t.Errorf("first holder of ProdKey 1: rows = %v, want [0]", rows)
	}
	if rows := factRows("Widget A bis"); len(rows) != 0 {
		t.Errorf("second holder of ProdKey 1 owns no facts: rows = %v", rows)
	}
	if rows := factRows("Widget A", "Widget A bis"); len(rows) != 1 || rows[0] != 0 {
		t.Errorf("both holders together: rows = %v, want [0]", rows)
	}
	counts := mustGroupBy(t, ex, mustFactRows(t, ex, nil), "Name", path, CountMeasure(), Count)
	for _, name := range []string{"Widget A", "Widget A bis", "Widget B"} {
		if got, want := float64(len(factRows(name))), counts[relation.String(name)]; got != want {
			t.Errorf("%s: subspace holds %v facts, group-by credits %v", name, got, want)
		}
	}
	// Two hops: the duplicate shares its group, so the group's subspace
	// still holds fact 0 once.
	grpPath, _ := g.PathFromFact("Grp", "Product")
	rows := mustFactRows(t, ex, []Constraint{{Table: "Grp", Attr: "GrpName", Values: []relation.Value{relation.String("Widgets")}, Path: grpPath}})
	if len(rows) != 1 || rows[0] != 0 {
		t.Errorf("group subspace = %v, want [0]", rows)
	}
}

func TestDirtyDataGroupByDropsUnlinked(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	m := ColumnMeasure(g.DB().Table("Fact"), "Amount")
	all := mustFactRows(t, ex, nil)
	if len(all) != 5 {
		t.Fatalf("all = %d", len(all))
	}
	prodPath, _ := g.PathFromFact("Prod", "Product")
	byName := mustGroupBy(t, ex, all, "Name", prodPath, m, Sum)
	if len(byName) != 2 {
		t.Fatalf("groups = %v", byName)
	}
	if byName[relation.String("Widget A")] != 10 || byName[relation.String("Widget B")] != 20 {
		t.Errorf("groups = %v (dangling/NULL facts must be dropped)", byName)
	}
	// Two hops with a dangling middle: group by GrpName drops Widget B's
	// facts too.
	grpPath, _ := g.PathFromFact("Grp", "Product")
	byGrp := mustGroupBy(t, ex, all, "GrpName", grpPath, m, Sum)
	if len(byGrp) != 1 || byGrp[relation.String("Widgets")] != 10 {
		t.Errorf("group-level groups = %v", byGrp)
	}
}

func TestDirtyDataNumericSeries(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	m := ColumnMeasure(g.DB().Table("Fact"), "Amount")
	all := mustFactRows(t, ex, nil)
	prodPath, _ := g.PathFromFact("Prod", "Product")
	// ProdKey as a "numeric attribute" on the product table: only linked
	// facts appear.
	series := mustSeries(t, ex, all, "ProdKey", prodPath, m)
	if len(series) != 3 {
		t.Errorf("series = %v", series)
	}
}

// A fact whose measure is NULL stays in the dataspace — its attribute
// values are present, so it touches its group and appears in the numeric
// series — but adds nothing to any aggregate: aggState.add skips it, and
// the consumers of a series skip it the same way (kdapcore's
// Intervals.Accumulate; TestNullMeasureDoesNotPoisonBucket there).
func TestDirtyDataNullMeasure(t *testing.T) {
	g, ex := dirtyWarehouse(t)
	m := ColumnMeasure(g.DB().Table("Fact"), "Amount")
	all := mustFactRows(t, ex, nil)
	prodPath, _ := g.PathFromFact("Prod", "Product")
	for agg, want := range map[Agg]float64{Sum: 20, Count: 1, Avg: 20, Min: 20, Max: 20} {
		if got := mustGroupBy(t, ex, all, "Name", prodPath, m, agg)[relation.String("Widget B")]; got != want {
			t.Errorf("Widget B %v = %v, want %v: the NULL-measure fact must not count", agg, got, want)
		}
	}
	if got := mustAggregate(t, ex, all, m, Sum); got != 150 {
		t.Errorf("total = %v, want 150", got)
	}
	var streamed []ValueMeasure
	err := ex.FoldNumericSeriesCtx(context.Background(), all, "ProdKey", prodPath, m, func(stride []ValueMeasure) {
		streamed = append(streamed, stride...)
	})
	if err != nil {
		t.Fatal(err)
	}
	series := mustSeries(t, ex, all, "ProdKey", prodPath, m)
	if len(series) != 3 || series[2].Value != 2 || !math.IsNaN(series[2].Measure) {
		t.Fatalf("series = %v, want the NULL-measure fact as (2, NaN)", series)
	}
	for i := range series {
		if len(streamed) != len(series) || streamed[i].Value != series[i].Value ||
			math.Float64bits(streamed[i].Measure) != math.Float64bits(series[i].Measure) {
			t.Fatalf("streamed %v, materialised %v", streamed, series)
		}
	}
}
