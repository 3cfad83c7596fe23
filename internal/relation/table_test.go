package relation

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func citySchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("City",
		[]Column{
			{Name: "CityKey", Kind: KindInt},
			{Name: "Name", Kind: KindString, FullText: true},
			{Name: "Population", Kind: KindFloat},
		},
		"CityKey", nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	cols := []Column{{Name: "A", Kind: KindInt}}
	cases := []struct {
		name string
		fn   func() (*Schema, error)
	}{
		{"empty name", func() (*Schema, error) { return NewSchema("", cols, "", nil) }},
		{"no columns", func() (*Schema, error) { return NewSchema("T", nil, "", nil) }},
		{"dup column", func() (*Schema, error) {
			return NewSchema("T", []Column{{Name: "A", Kind: KindInt}, {Name: "A", Kind: KindString}}, "", nil)
		}},
		{"null-kind column", func() (*Schema, error) {
			return NewSchema("T", []Column{{Name: "A", Kind: KindNull}}, "", nil)
		}},
		{"missing key", func() (*Schema, error) { return NewSchema("T", cols, "B", nil) }},
		{"missing fk column", func() (*Schema, error) {
			return NewSchema("T", cols, "", []ForeignKey{{Column: "B", RefTable: "X", RefColumn: "Y"}})
		}},
		{"empty fk target", func() (*Schema, error) {
			return NewSchema("T", cols, "", []ForeignKey{{Column: "A"}})
		}},
	}
	for _, c := range cases {
		if _, err := c.fn(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSchemaLookups(t *testing.T) {
	s := citySchema(t)
	if s.ColumnIndex("Name") != 1 || s.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if !s.HasColumn("Population") || s.HasColumn("Pop") {
		t.Error("HasColumn wrong")
	}
	c, ok := s.Column("Name")
	if !ok || !c.FullText {
		t.Error("Column lookup wrong")
	}
	if got := s.FullTextColumns(); !reflect.DeepEqual(got, []string{"Name"}) {
		t.Errorf("FullTextColumns = %v", got)
	}
	if s.String() != "City(CityKey:int, Name:string, Population:float)" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestTableAppendAndRead(t *testing.T) {
	tab := NewTable(citySchema(t))
	id0 := tab.MustAppend(Int(1), String("Columbus"), Float(900000))
	id1 := tab.MustAppend(Int(2), String("San Jose"), Int(1000000)) // int widened to float
	if id0 != 0 || id1 != 1 || tab.Len() != 2 {
		t.Fatalf("ids %d,%d len %d", id0, id1, tab.Len())
	}
	if tab.Value(1, "Population").Kind() != KindFloat {
		t.Error("int not widened into float column")
	}
	if tab.Value(0, "Name").Str() != "Columbus" {
		t.Error("read back failed")
	}
}

func TestTableAppendErrors(t *testing.T) {
	tab := NewTable(citySchema(t))
	if _, err := tab.Append([]Value{Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := tab.Append([]Value{String("x"), String("y"), Float(1)}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := tab.Append([]Value{Null(), Null(), Null()}); err != nil {
		t.Errorf("NULLs rejected: %v", err)
	}
}

func TestTableLookupAndIndexMaintenance(t *testing.T) {
	tab := NewTable(citySchema(t))
	tab.MustAppend(Int(1), String("Columbus"), Float(1))
	// Force index construction, then append more: index must stay fresh.
	if got := tab.Lookup("Name", String("Columbus")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Lookup = %v", got)
	}
	tab.MustAppend(Int(2), String("Columbus"), Float(2))
	tab.MustAppend(Int(3), String("Seattle"), Float(3))
	if got := tab.Lookup("Name", String("Columbus")); len(got) != 2 {
		t.Errorf("index not maintained on append: %v", got)
	}
	got := tab.LookupIn("Name", []Value{String("Seattle"), String("Columbus"), String("Columbus")})
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("LookupIn = %v", got)
	}
	if got := tab.Lookup("Name", String("Nowhere")); got != nil {
		t.Errorf("missing key should return nil, got %v", got)
	}
}

func TestTableScanFilterDistinct(t *testing.T) {
	tab := NewTable(citySchema(t))
	tab.MustAppend(Int(1), String("A"), Float(10))
	tab.MustAppend(Int(2), String("B"), Float(20))
	tab.MustAppend(Int(3), String("A"), Float(30))
	tab.MustAppend(Int(4), Null(), Float(40))

	var seen int
	tab.Scan(func(id int, row []Value) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Errorf("Scan early stop: %d", seen)
	}

	ids := tab.Filter(func(row []Value) bool { return row[2].AsFloat() > 15 })
	if !reflect.DeepEqual(ids, []int{1, 2, 3}) {
		t.Errorf("Filter = %v", ids)
	}

	dv := tab.DistinctValues("Name")
	if !reflect.DeepEqual(dv, []Value{String("A"), String("B")}) {
		t.Errorf("DistinctValues = %#v (NULL must be skipped, order first-seen)", dv)
	}
}

func TestTablePanicsOnUnknownColumn(t *testing.T) {
	tab := NewTable(citySchema(t))
	tab.MustAppend(Int(1), String("A"), Float(1))
	for name, fn := range map[string]func(){
		"Value":          func() { tab.Value(0, "nope") },
		"Lookup":         func() { tab.Lookup("nope", Int(1)) },
		"DistinctValues": func() { tab.DistinctValues("nope") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on unknown column", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Lookup agrees with a full scan for random data, regardless of
// whether the index was built before or after the appends.
func TestTableLookupMatchesScanProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable(MustSchema("T", []Column{
			{Name: "K", Kind: KindInt},
		}, "", nil))
		if n%2 == 0 {
			tab.Lookup("K", Int(0)) // build index early
		}
		for i := 0; i < int(n); i++ {
			tab.MustAppend(Int(int64(rng.Intn(8))))
		}
		for k := int64(0); k < 8; k++ {
			want := tab.Filter(func(row []Value) bool { return row[0].Equal(Int(k)) })
			got := tab.Lookup("K", Int(k))
			if len(want) != len(got) {
				return false
			}
			for i := range want {
				if want[i] != got[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDedupSorted(t *testing.T) {
	cases := []struct{ in, want []int }{
		{nil, nil},
		{[]int{1}, []int{1}},
		{[]int{1, 1, 1}, []int{1}},
		{[]int{1, 2, 2, 3, 3, 3}, []int{1, 2, 3}},
	}
	for _, c := range cases {
		if got := dedupSorted(append([]int(nil), c.in...)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("dedupSorted(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDatabaseValidate(t *testing.T) {
	db := NewDatabase("test")
	city := db.MustCreateTable(citySchema(t))
	store := db.MustCreateTable(MustSchema("Store", []Column{
		{Name: "StoreKey", Kind: KindInt},
		{Name: "CityKey", Kind: KindInt},
	}, "StoreKey", []ForeignKey{{Column: "CityKey", RefTable: "City", RefColumn: "CityKey"}}))

	city.MustAppend(Int(1), String("Columbus"), Float(1))
	store.MustAppend(Int(10), Int(1))
	if err := db.Validate(true); err != nil {
		t.Fatalf("valid db rejected: %v", err)
	}

	store.MustAppend(Int(11), Int(999)) // dangling FK
	if err := db.Validate(false); err != nil {
		t.Errorf("non-strict should pass: %v", err)
	}
	if err := db.Validate(true); err == nil {
		t.Error("strict validation missed dangling foreign key")
	}

	store.MustAppend(Int(12), Null()) // NULL FK is fine
}

func TestDatabaseValidateMissingTargets(t *testing.T) {
	db := NewDatabase("test")
	db.MustCreateTable(MustSchema("A", []Column{
		{Name: "X", Kind: KindInt},
	}, "", []ForeignKey{{Column: "X", RefTable: "Missing", RefColumn: "Y"}}))
	if err := db.Validate(false); err == nil {
		t.Error("missing ref table accepted")
	}

	db2 := NewDatabase("test2")
	db2.MustCreateTable(MustSchema("B", []Column{{Name: "Y", Kind: KindInt}}, "", nil))
	db2.MustCreateTable(MustSchema("A", []Column{
		{Name: "X", Kind: KindInt},
	}, "", []ForeignKey{{Column: "X", RefTable: "B", RefColumn: "Z"}}))
	if err := db2.Validate(false); err == nil {
		t.Error("missing ref column accepted")
	}
}

func TestDatabaseTablesAndStats(t *testing.T) {
	db := NewDatabase("d")
	a := db.MustCreateTable(MustSchema("A", []Column{{Name: "X", Kind: KindInt}}, "", nil))
	db.MustCreateTable(MustSchema("B", []Column{{Name: "Y", Kind: KindString, FullText: true}}, "", nil))
	a.MustAppend(Int(1))
	a.MustAppend(Int(2))

	if db.Table("A") != a || db.Table("missing") != nil {
		t.Error("Table lookup wrong")
	}
	if !reflect.DeepEqual(db.TableNames(), []string{"A", "B"}) {
		t.Error("TableNames order wrong")
	}
	if err := db.AddTable(NewTable(MustSchema("A", []Column{{Name: "X", Kind: KindInt}}, "", nil))); err == nil {
		t.Error("duplicate table accepted")
	}
	st := db.Stats()
	if st.Tables != 2 || st.Rows != 2 || st.FullTextColumns != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestFreezeAllowsConcurrentReads(t *testing.T) {
	db := NewDatabase("d")
	tab := db.MustCreateTable(MustSchema("T", []Column{
		{Name: "K", Kind: KindInt},
	}, "K", nil))
	for i := 0; i < 100; i++ {
		tab.MustAppend(Int(int64(i % 10)))
	}
	db.Freeze()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := int64(0); i < 10; i++ {
				if len(tab.Lookup("K", Int(i))) != 10 {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent lookup returned wrong result")
		}
	}
}

func columnarTable(t *testing.T) *Table {
	t.Helper()
	tbl := NewTable(citySchema(t))
	tbl.MustAppend(Int(1), String("Columbus"), Float(900000))
	tbl.MustAppend(Int(2), String("Seattle"), Null())
	tbl.MustAppend(Int(3), String("Columbus"), Float(120000))
	tbl.MustAppend(Int(4), Null(), Float(42)) // ints widen into float columns too
	return tbl
}

func TestFloatColumn(t *testing.T) {
	tbl := columnarTable(t)
	pop := tbl.FloatColumn("Population")
	if len(pop) != 4 {
		t.Fatalf("len = %d", len(pop))
	}
	if pop[0] != 900000 || pop[2] != 120000 || pop[3] != 42 {
		t.Errorf("pop = %v", pop)
	}
	if !math.IsNaN(pop[1]) {
		t.Errorf("NULL should read as NaN, got %g", pop[1])
	}
	// String columns yield all-NaN rather than panicking: the columnar
	// kernels probe attribute columns whose kind they don't know.
	name := tbl.FloatColumn("Name")
	for i, v := range name {
		if !math.IsNaN(v) {
			t.Errorf("string column row %d = %g", i, v)
		}
	}
	// The column is shared, not copied...
	if &pop[0] != &tbl.FloatColumn("Population")[0] {
		t.Error("FloatColumn copied the column")
	}
	// ...and a later call sees appended rows.
	tbl.MustAppend(Int(5), String("Austin"), Float(7))
	pop2 := tbl.FloatColumn("Population")
	if len(pop2) != 5 || pop2[4] != 7 {
		t.Errorf("post-append pop = %v", pop2)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown column should panic")
		}
	}()
	tbl.FloatColumn("Nope")
}

func TestDictColumn(t *testing.T) {
	tbl := columnarTable(t)
	codes, dict := tbl.DictColumn("Name")
	if len(codes) != 4 {
		t.Fatalf("codes = %v", codes)
	}
	// First-seen order: Columbus=0, Seattle=1; NULL is -1.
	want := []int32{0, 1, 0, -1}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v", codes, want)
		}
	}
	if len(dict) != 2 || dict[0].Str() != "Columbus" || dict[1].Str() != "Seattle" {
		t.Fatalf("dict = %v", dict)
	}
	// Decoding must reproduce the stored column exactly.
	for i := 0; i < tbl.Len(); i++ {
		v := tbl.Value(i, "Name")
		if codes[i] < 0 {
			if !v.IsNull() {
				t.Errorf("row %d: code -1 for non-NULL %v", i, v)
			}
			continue
		}
		if dict[codes[i]] != v {
			t.Errorf("row %d decodes to %v, want %v", i, dict[codes[i]], v)
		}
	}
	// Shared, not copied; a later call sees appended rows.
	c2, _ := tbl.DictColumn("Name")
	if &codes[0] != &c2[0] {
		t.Error("DictColumn copied the column")
	}
	tbl.MustAppend(Int(5), String("Austin"), Float(7))
	c3, d3 := tbl.DictColumn("Name")
	if len(c3) != 5 || c3[4] != 2 || len(d3) != 3 {
		t.Errorf("post-append codes = %v dict = %v", c3, d3)
	}
}

// Columns are storage, not views built at Freeze: concurrent readers of a
// frozen table share them with no build path to take.
func TestFreezeBuildsFloatColumns(t *testing.T) {
	tbl := columnarTable(t)
	tbl.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pop := tbl.FloatColumn("Population")
			if pop[0] != 900000 {
				t.Error("bad column read")
			}
			codes, _ := tbl.DictColumn("Name")
			if codes[0] != 0 {
				t.Error("bad dict read")
			}
		}()
	}
	wg.Wait()
}
