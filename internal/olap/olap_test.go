package olap

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"kdap/internal/dataset"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

var ebiz = dataset.EBiz() // shared read-only warehouse across tests

func revenue(t *testing.T) Measure {
	t.Helper()
	return ProductMeasure(ebiz.DB.Table("TRANSITEM"), "revenue", "UnitPrice", "Quantity")
}

func pathTo(t *testing.T, table, role string) schemagraph.JoinPath {
	t.Helper()
	p, ok := ebiz.Graph.PathFromFact(table, role)
	if !ok {
		t.Fatalf("no path from %s (%s)", table, role)
	}
	return p
}

func TestAggString(t *testing.T) {
	names := map[Agg]string{Sum: "SUM", Count: "COUNT", Avg: "AVG", Min: "MIN", Max: "MAX"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%v.String() = %q", int(a), a.String())
		}
	}
	if Agg(42).String() == "" {
		t.Error("unknown agg should render")
	}
}

func TestMeasureConstructors(t *testing.T) {
	fact := ebiz.DB.Table("TRANSITEM")
	qty := ColumnMeasure(fact, "Quantity")
	row := fact.Row(0)
	if qty.Eval(row) != row[fact.Schema().ColumnIndex("Quantity")].AsFloat() {
		t.Error("ColumnMeasure wrong")
	}
	rev := ProductMeasure(fact, "rev", "UnitPrice", "Quantity")
	want := row[fact.Schema().ColumnIndex("UnitPrice")].AsFloat() *
		row[fact.Schema().ColumnIndex("Quantity")].AsFloat()
	if rev.Eval(row) != want {
		t.Error("ProductMeasure wrong")
	}
	if CountMeasure().Eval(row) != 1 {
		t.Error("CountMeasure wrong")
	}
	for name, fn := range map[string]func(){
		"ColumnMeasure":  func() { ColumnMeasure(fact, "nope") },
		"ProductMeasure": func() { ProductMeasure(fact, "x", "nope", "Quantity") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad column should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFactRowsNoConstraints(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	rows := mustFactRows(t, ex, nil)
	if len(rows) != ex.FactLen() {
		t.Errorf("full dataspace = %d rows, want %d", len(rows), ex.FactLen())
	}
}

// Slicing by product group must agree with a brute-force join.
func TestFactRowsSingleConstraintMatchesBruteForce(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	paths := ebiz.Graph.JoinPaths("PGROUP")
	if len(paths) != 1 {
		t.Fatal("PGROUP path count")
	}
	val := relation.String("LCD Projectors")
	rows := mustFactRows(t, ex, []Constraint{{
		Table: "PGROUP", Attr: "GroupName", Values: []relation.Value{val}, Path: paths[0],
	}})

	// Brute force: find group key, products in group, facts with product.
	pg := ebiz.DB.Table("PGROUP")
	gk := pg.Row(pg.Lookup("GroupName", val)[0])[pg.Schema().ColumnIndex("PGroupKey")]
	prod := ebiz.DB.Table("PRODUCT")
	prodKeys := map[relation.Value]bool{}
	for _, pr := range prod.Lookup("PGroupKey", gk) {
		prodKeys[prod.Row(pr)[prod.Schema().ColumnIndex("ProductKey")]] = true
	}
	fact := ebiz.DB.Table("TRANSITEM")
	want := fact.Filter(func(row []relation.Value) bool {
		return prodKeys[row[fact.Schema().ColumnIndex("ProductKey")]]
	})
	if len(rows) != len(want) {
		t.Fatalf("semijoin %d rows, brute force %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Fatalf("row mismatch at %d: %d vs %d", i, rows[i], want[i])
		}
	}
	if len(rows) == 0 {
		t.Fatal("LCD Projectors slice is empty — dataset skew missing")
	}
}

// Buyer and Seller paths from the same city must slice different subspaces.
func TestFactRowsRoleMatters(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	var buyer, seller, store schemagraph.JoinPath
	for _, p := range ebiz.Graph.JoinPaths("LOC") {
		switch p.Role {
		case "Buyer":
			buyer = p
		case "Seller":
			seller = p
		case "Store":
			store = p
		}
	}
	val := []relation.Value{relation.String("Columbus")}
	rb := mustFactRows(t, ex, []Constraint{{Table: "LOC", Attr: "City", Values: val, Path: buyer}})
	rs := mustFactRows(t, ex, []Constraint{{Table: "LOC", Attr: "City", Values: val, Path: seller}})
	rst := mustFactRows(t, ex, []Constraint{{Table: "LOC", Attr: "City", Values: val, Path: store}})
	if len(rb) == 0 || len(rs) == 0 || len(rst) == 0 {
		t.Fatalf("empty slices: buyer %d seller %d store %d", len(rb), len(rs), len(rst))
	}
	eq := func(a, b []int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if eq(rb, rs) || eq(rb, rst) {
		t.Error("different roles produced identical subspaces")
	}
}

// Intersection semantics: two constraints shrink the subspace to the AND.
func TestFactRowsIntersection(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	locPath := pathTo(t, "LOC", "Store")
	pgPath := pathTo(t, "PGROUP", "Product")
	cCity := Constraint{Table: "LOC", Attr: "City",
		Values: []relation.Value{relation.String("Columbus")}, Path: locPath}
	cGroup := Constraint{Table: "PGROUP", Attr: "GroupName",
		Values: []relation.Value{relation.String("LCD TVs")}, Path: pgPath}

	both := mustFactRows(t, ex, []Constraint{cCity, cGroup})
	city := mustFactRows(t, ex, []Constraint{cCity})
	group := mustFactRows(t, ex, []Constraint{cGroup})
	if len(both) == 0 {
		t.Fatal("intersection empty — Columbus stores should sell LCD TVs")
	}
	if len(both) > len(city) || len(both) > len(group) {
		t.Error("intersection larger than a side")
	}
	inCity := map[int]bool{}
	for _, r := range city {
		inCity[r] = true
	}
	inGroup := map[int]bool{}
	for _, r := range group {
		inGroup[r] = true
	}
	for _, r := range both {
		if !inCity[r] || !inGroup[r] {
			t.Fatal("intersection contains row outside a side")
		}
	}
	want := 0
	for _, r := range city {
		if inGroup[r] {
			want++
		}
	}
	if len(both) != want {
		t.Errorf("intersection size %d, want %d", len(both), want)
	}
}

func TestFactRowsEmptyIntersectionShortCircuits(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	locPath := pathTo(t, "LOC", "Store")
	rows := mustFactRows(t, ex, []Constraint{
		{Table: "LOC", Attr: "City", Values: []relation.Value{relation.String("Nowhereville")}, Path: locPath},
		{Table: "PGROUP", Attr: "GroupName", Values: []relation.Value{relation.String("LCD TVs")}, Path: pathTo(t, "PGROUP", "Product")},
	})
	if rows != nil {
		t.Errorf("expected nil, got %d rows", len(rows))
	}
}

func TestAggregateFunctions(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	rows := []int{0, 1, 2, 3, 4}
	m := revenue(t)
	var want []float64
	fact := ebiz.DB.Table("TRANSITEM")
	for _, r := range rows {
		want = append(want, m.Eval(fact.Row(r)))
	}
	var sum, min, max float64
	min, max = math.Inf(1), math.Inf(-1)
	for _, w := range want {
		sum += w
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if got := mustAggregate(t, ex, rows, m, Sum); math.Abs(got-sum) > 1e-9 {
		t.Errorf("Sum = %g, want %g", got, sum)
	}
	if got := mustAggregate(t, ex, rows, m, Count); got != 5 {
		t.Errorf("Count = %g", got)
	}
	if got := mustAggregate(t, ex, rows, m, Avg); math.Abs(got-sum/5) > 1e-9 {
		t.Errorf("Avg = %g", got)
	}
	if got := mustAggregate(t, ex, rows, m, Min); got != min {
		t.Errorf("Min = %g, want %g", got, min)
	}
	if got := mustAggregate(t, ex, rows, m, Max); got != max {
		t.Errorf("Max = %g, want %g", got, max)
	}
	// Empty row sets.
	if got := mustAggregate(t, ex, nil, m, Sum); got != 0 {
		t.Errorf("empty Sum = %g", got)
	}
	if got := mustAggregate(t, ex, nil, m, Avg); !math.IsNaN(got) {
		t.Errorf("empty Avg = %g, want NaN", got)
	}
}

// Group-by over the whole dataspace must partition the total: the sum of
// group aggregates equals the global aggregate (every fact links to a
// product group in EBiz).
func TestGroupByPartitionsTotal(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	all := mustFactRows(t, ex, nil)
	total := mustAggregate(t, ex, all, m, Sum)
	groups := mustGroupBy(t, ex, all, "GroupName", pathTo(t, "PGROUP", "Product"), m, Sum)
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	var sum float64
	for _, v := range groups {
		sum += v
	}
	if math.Abs(sum-total) > 1e-6*math.Abs(total) {
		t.Errorf("group sum %g != total %g", sum, total)
	}
}

// Property: for random subsets of fact rows, group-by sums always add up
// to the subset's aggregate.
func TestGroupByPartitionProperty(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	path := pathTo(t, "PGROUP", "Product")
	f := func(seed uint32) bool {
		// Deterministic pseudo-random subset from the seed.
		var rows []int
		x := uint64(seed)*2654435761 + 1
		for i := 0; i < ex.FactLen(); i++ {
			x = x*6364136223846793005 + 1442695040888963407
			if x>>60 < 3 {
				rows = append(rows, i)
			}
		}
		total := mustAggregate(t, ex, rows, m, Sum)
		var sum float64
		for _, v := range mustGroupBy(t, ex, rows, "GroupName", path, m, Sum) {
			sum += v
		}
		return math.Abs(sum-total) <= 1e-6*(math.Abs(total)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGroupByAlongSnowflakePath(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	all := mustFactRows(t, ex, nil)
	// Group by State (two hops: LOC ← STORE ← TRANS ← TRANSITEM).
	groups := mustGroupBy(t, ex, all, "State", pathTo(t, "LOC", "Store"), m, Sum)
	if len(groups) < 5 {
		t.Errorf("state groups = %d", len(groups))
	}
	if _, ok := groups[relation.String("California")]; !ok {
		t.Error("California missing from state group-by")
	}
}

func TestNumericSeries(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	all := mustFactRows(t, ex, nil)
	series := mustSeries(t, ex, all, "Income", pathTo(t, "CUSTOMER", "Buyer"), m)
	if len(series) != len(all) {
		t.Errorf("series %d entries, want %d (every fact has a buyer)", len(series), len(all))
	}
	for _, vm := range series[:100] {
		if vm.Value < 20000 || vm.Value > 150000 {
			t.Fatalf("income out of generated range: %g", vm.Value)
		}
		if vm.Measure <= 0 {
			t.Fatalf("non-positive revenue: %g", vm.Measure)
		}
	}
	// Non-numeric attribute yields empty series rather than junk.
	empty := mustSeries(t, ex, all[:50], "City", pathTo(t, "LOC", "Store"), m)
	if len(empty) != 0 {
		t.Errorf("string attribute produced %d numeric entries", len(empty))
	}
}

func TestDimValuesRollup(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	// Hit rows: PGROUP rows for the two LCD groups; roll up to LineName.
	pg := ebiz.DB.Table("PGROUP")
	hitRows := append(pg.Lookup("GroupName", relation.String("LCD Projectors")),
		pg.Lookup("GroupName", relation.String("Flat Panel(LCD)"))...)
	paths := ebiz.Graph.InnerPathsWithin("PGROUP", "PLINE", ebiz.Graph.Dimension("Product"))
	if len(paths) != 1 {
		t.Fatalf("inner paths = %d", len(paths))
	}
	vals, err := ex.DimValues(context.Background(), hitRows, paths[0], "LineName")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("parent lines = %#v, want [Electronics Monitor]", vals)
	}
	if vals[0].Str() != "Electronics" || vals[1].Str() != "Monitor" {
		t.Errorf("parent lines = %#v", vals)
	}
}

func TestMapRowsZeroHopPath(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	rows := []int{3, 1, 2}
	got, err := ex.MapRowsCtx(context.Background(), rows, schemagraph.JoinPath{Source: "PGROUP"})
	if err != nil || len(got) != 3 {
		t.Errorf("zero-hop MapRowsCtx = %v, %v", got, err)
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{[]int{1, 2, 3}, []int{2, 3, 4}, []int{2, 3}},
		{[]int{1, 2}, []int{3, 4}, nil},
		{nil, []int{1}, nil},
		{[]int{5}, []int{5}, []int{5}},
	}
	for _, c := range cases {
		got := intersectSorted(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("intersect(%v,%v) = %v", c.a, c.b, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("intersect(%v,%v) = %v", c.a, c.b, got)
			}
		}
	}
}

func TestExecutorConcurrentGroupBy(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	all := mustFactRows(t, ex, nil)
	path := pathTo(t, "PGROUP", "Product")
	want := mustGroupBy(t, ex, all, "GroupName", path, m, Sum)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			got, err := ex.GroupByCtx(context.Background(), all, "GroupName", path, m, Sum)
			ok := err == nil && len(got) == len(want)
			for k, v := range want {
				if math.Abs(got[k]-v) > 1e-9 {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent GroupBy inconsistent")
		}
	}
}

// Repeated and interleaved FactRowsCtx calls must return identical results
// through the per-constraint cache, including after cache churn.
func TestFactRowsConstraintCache(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	locPath := pathTo(t, "LOC", "Store")
	pgPath := pathTo(t, "PGROUP", "Product")
	c1 := Constraint{Table: "LOC", Attr: "City",
		Values: []relation.Value{relation.String("Columbus")}, Path: locPath}
	c2 := Constraint{Table: "PGROUP", Attr: "GroupName",
		Values: []relation.Value{relation.String("LCD TVs")}, Path: pgPath}

	want := mustFactRows(t, ex, []Constraint{c1, c2})
	for i := 0; i < 5; i++ {
		// Interleave other constraints to churn the cache.
		_ = mustFactRows(t, ex, []Constraint{{Table: "LOC", Attr: "State",
			Values: []relation.Value{relation.String("California")}, Path: locPath}})
		got := mustFactRows(t, ex, []Constraint{c1, c2})
		if len(got) != len(want) {
			t.Fatalf("iteration %d: %d rows, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("iteration %d row %d differs", i, j)
			}
		}
	}
	// Order of constraints must not matter.
	rev := mustFactRows(t, ex, []Constraint{c2, c1})
	if len(rev) != len(want) {
		t.Fatalf("constraint order changed the result: %d vs %d", len(rev), len(want))
	}
}

func TestConstraintSigDistinguishes(t *testing.T) {
	locPath := pathTo(t, "LOC", "Store")
	base := Constraint{Table: "LOC", Attr: "City",
		Values: []relation.Value{relation.String("Columbus")}, Path: locPath}
	same := base
	same.Values = []relation.Value{relation.String("Columbus")}
	if constraintSig(base) != constraintSig(same) {
		t.Error("identical constraints got different signatures")
	}
	diffVal := base
	diffVal.Values = []relation.Value{relation.String("Seattle")}
	if constraintSig(base) == constraintSig(diffVal) {
		t.Error("different values collide")
	}
	diffAttr := base
	diffAttr.Attr = "State"
	if constraintSig(base) == constraintSig(diffAttr) {
		t.Error("different attrs collide")
	}
	// Value order inside one constraint is canonicalized.
	multi := base
	multi.Values = []relation.Value{relation.String("A"), relation.String("B")}
	multiRev := base
	multiRev.Values = []relation.Value{relation.String("B"), relation.String("A")}
	if constraintSig(multi) != constraintSig(multiRev) {
		t.Error("value order changed the signature")
	}
}

func TestFilterRowsNumeric(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	all := mustFactRows(t, ex, nil)
	path := pathTo(t, "CUSTOMER", "Buyer")
	rich := mustFilter(t, ex, all, "Income", path, func(x float64) bool { return x > 100000 })
	if len(rich) == 0 || len(rich) >= len(all) {
		t.Fatalf("filtered = %d of %d", len(rich), len(all))
	}
	// Every surviving row's buyer income really exceeds the bound.
	series := mustSeries(t, ex, rich, "Income", path, m)
	for _, vm := range series {
		if vm.Value <= 100000 {
			t.Fatalf("income %g leaked through", vm.Value)
		}
	}
	// Panics on unknown attribute.
	defer func() {
		if recover() == nil {
			t.Error("unknown attr should panic")
		}
	}()
	mustFilter(t, ex, all, "Nope", path, func(float64) bool { return true })
}

func TestExecutorAccessors(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	if ex.Graph() != ebiz.Graph {
		t.Error("Graph accessor")
	}
	if ex.FactLen() != ebiz.DB.Table("TRANSITEM").Len() {
		t.Error("FactLen accessor")
	}
}

func TestPivotTruncate(t *testing.T) {
	if truncate("short", 10) != "short" {
		t.Error("no-op truncate")
	}
	if got := truncate("averylongcategoryname", 8); len(got) > 10 || got[:7] != "averylo" {
		t.Errorf("truncate = %q", got)
	}
}

// TestFactAttributesOnPagedFact: a group-by, a numeric series and a
// numeric filter over the fact table's own columns read them through the
// segment readers, so a fact table paged to disk answers exactly as the
// resident one does.
func TestFactAttributesOnPagedFact(t *testing.T) {
	wh := dataset.AWOnline()
	bwh, store, err := persist.BackedWarehouse(t.TempDir(), wh, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	type answers struct {
		groups   map[relation.Value]float64
		series   []ValueMeasure
		filtered []int
	}
	run := func(wh *dataset.Warehouse) answers {
		ctx := context.Background()
		ex := NewExecutor(wh.Graph)
		fact := wh.DB.Table(wh.Graph.FactTable())
		zero := schemagraph.JoinPath{Source: fact.Name()}
		m := RevenueMeasure(fact)
		rows := mustFactRows(t, ex, nil)
		var a answers
		if a.groups, err = ex.GroupByCtx(ctx, rows, "OrderQuantity", zero, m, Sum); err != nil {
			t.Fatal(err)
		}
		if a.series, err = ex.NumericSeriesCtx(ctx, rows, "UnitPrice", zero, m); err != nil {
			t.Fatal(err)
		}
		if a.filtered, err = ex.FilterRowsNumericBoundCtx(ctx, rows, "UnitPrice", zero, 100, math.Inf(1), func(f float64) bool { return f >= 100 }); err != nil {
			t.Fatal(err)
		}
		return a
	}
	resident, paged := run(wh), run(bwh)
	if len(resident.groups) == 0 || len(resident.series) == 0 || len(resident.filtered) == 0 {
		t.Fatalf("empty resident answers: %d groups, %d pairs, %d rows", len(resident.groups), len(resident.series), len(resident.filtered))
	}
	if err := sameGroups(paged.groups, resident.groups); err != nil {
		t.Errorf("GroupBy(OrderQuantity): %v", err)
	}
	if !reflect.DeepEqual(paged.series, resident.series) {
		t.Errorf("NumericSeries(UnitPrice): %d pairs paged, %d resident, or values differ", len(paged.series), len(resident.series))
	}
	if !reflect.DeepEqual(paged.filtered, resident.filtered) {
		t.Errorf("FilterRowsNumericBound(UnitPrice >= 100): %d rows paged, %d resident", len(paged.filtered), len(resident.filtered))
	}
}
