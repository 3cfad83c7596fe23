package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Columns are a resident table's only storage; every boxed accessor
// materialises from them. The oracle below is the boxed [][]Value the
// table used to hold — it lives only here.

// storedForm is the value a column gives back for an appended v: an Int
// bound for a Float column comes back widened.
func storedForm(c Column, v Value) Value {
	if c.Kind == KindFloat && v.Kind() == KindInt {
		return Float(float64(v.IntVal()))
	}
	return v
}

// randomSchema draws 1–6 columns over all four kinds.
func randomSchema(rng *rand.Rand) *Schema {
	kinds := []Kind{KindString, KindInt, KindFloat, KindBool}
	cols := make([]Column, 1+rng.Intn(6))
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("C%d", i), Kind: kinds[rng.Intn(len(kinds))]}
	}
	return MustSchema("R", cols, "", nil)
}

// randomCell draws a NULL-able value for c from a small domain, so
// lookups hit, dictionaries repeat and zones stay narrow. Int cells land
// in Float columns too, to exercise widening.
func randomCell(rng *rand.Rand, c Column, row int) Value {
	if rng.Intn(7) == 0 {
		return Null()
	}
	switch c.Kind {
	case KindString:
		return String(fmt.Sprintf("s%d", rng.Intn(12)))
	case KindInt:
		return Int(int64(row/1000*10 + rng.Intn(10) - 3))
	case KindFloat:
		if rng.Intn(3) == 0 {
			return Int(int64(rng.Intn(5)))
		}
		return Float(float64(row/1000) + float64(rng.Intn(8))*0.25)
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

func TestColumnsMatchBoxedOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := randomSchema(rng)
		tab := NewTable(schema)
		// Most tables stay small; every fourth crosses segment boundaries
		// so zones and multi-segment reads are exercised.
		target := 1 + rng.Intn(300)
		if seed%4 == 0 {
			target = DefaultSegmentSize*2 + rng.Intn(DefaultSegmentSize)
		}
		var oracle [][]Value
		check := func() { checkAgainstOracle(t, seed, rng, tab, oracle) }
		for len(oracle) < target {
			// A random append schedule: single rows and batches, with
			// reads (which build and later tail-extend the lazy indexes
			// and zones) interleaved at random points.
			batch := make([][]Value, 1+rng.Intn(1+target/3))
			for i := range batch {
				row := make([]Value, len(schema.Columns))
				for ci, c := range schema.Columns {
					row[ci] = randomCell(rng, c, len(oracle)+i)
				}
				batch[i] = row
			}
			start, err := tab.AppendFacts(batch)
			if err != nil || start != len(oracle) {
				t.Fatalf("seed %d: AppendFacts = %d, %v; want start %d", seed, start, err, len(oracle))
			}
			for _, row := range batch {
				stored := make([]Value, len(row))
				for ci, v := range row {
					stored[ci] = storedForm(schema.Columns[ci], v)
				}
				oracle = append(oracle, stored)
			}
			if rng.Intn(3) == 0 {
				check()
			}
		}
		check()
		if t.Failed() {
			t.Fatalf("seed %d: schema %s", seed, schema)
		}
	}
}

func checkAgainstOracle(t *testing.T, seed int64, rng *rand.Rand, tab *Table, oracle [][]Value) {
	t.Helper()
	schema := tab.Schema()
	if tab.Len() != len(oracle) {
		t.Fatalf("seed %d: Len %d, oracle %d", seed, tab.Len(), len(oracle))
	}
	// Row / Value on sampled rows, Scan on all of them.
	for k := 0; k < 20; k++ {
		id := rng.Intn(len(oracle))
		if got := tab.Row(id); !reflect.DeepEqual(got, oracle[id]) {
			t.Errorf("seed %d: Row(%d) = %#v, want %#v", seed, id, got, oracle[id])
		}
		ci := rng.Intn(len(schema.Columns))
		if got := tab.Value(id, schema.Columns[ci].Name); got != oracle[id][ci] {
			t.Errorf("seed %d: Value(%d, %s) = %#v, want %#v", seed, id, schema.Columns[ci].Name, got, oracle[id][ci])
		}
	}
	next := 0
	tab.Scan(func(id int, row []Value) bool {
		if id != next || !reflect.DeepEqual(row, oracle[id]) {
			t.Errorf("seed %d: Scan row %d (expected id %d) = %#v, want %#v", seed, id, next, row, oracle[id])
			return false
		}
		next++
		return true
	})
	if next != len(oracle) && !t.Failed() {
		t.Errorf("seed %d: Scan visited %d rows of %d", seed, next, len(oracle))
	}

	for ci, c := range schema.Columns {
		// Filter on "equals the first row's cell".
		probe := oracle[0][ci]
		var want []int
		for id, row := range oracle {
			if row[ci] == probe {
				want = append(want, id)
			}
		}
		got := tab.Filter(func(row []Value) bool { return row[ci] == probe })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Filter(%s == %#v) = %d rows, want %d", seed, c.Name, probe, len(got), len(want))
		}

		// The two dense forms decode to the oracle for every kind: a
		// numeric column's dictionary is derived, any other column's
		// float form is all-NaN.
		codes, dict := tab.DictColumn(c.Name)
		floats := tab.FloatColumn(c.Name)
		for id, row := range oracle {
			v := Null()
			if codes[id] >= 0 {
				v = dict[codes[id]]
			}
			f, wantF := floats[id], math.NaN()
			if numeric(c.Kind) {
				wantF = row[ci].FloatOrNaN()
			}
			if v != row[ci] || f != wantF && !(math.IsNaN(f) && math.IsNaN(wantF)) {
				t.Errorf("seed %d: row %d of %s decodes to %#v / %g, want %#v", seed, id, c.Name, v, f, row[ci])
				break
			}
		}

		// DistinctValues: non-NULL, first-seen order.
		seen := map[Value]bool{}
		var distinct []Value
		for _, row := range oracle {
			if v := row[ci]; !v.IsNull() && !seen[v] {
				seen[v] = true
				distinct = append(distinct, v)
			}
		}
		if got := tab.DistinctValues(c.Name); !reflect.DeepEqual(got, distinct) {
			t.Errorf("seed %d: DistinctValues(%s) = %#v, want %#v", seed, c.Name, got, distinct)
		}

		// Lookup / LookupIn, kind-exact: the same magnitude under the
		// other numeric kind matches nothing; NULL matches NULL cells.
		probes := append([]Value{Null(), String("absent")}, distinct...)
		for _, v := range distinct {
			switch v.Kind() {
			case KindInt:
				probes = append(probes, Float(float64(v.IntVal())))
			case KindFloat:
				if f := v.FloatVal(); f == math.Trunc(f) {
					probes = append(probes, Int(int64(f)))
				}
			}
		}
		rowsOf := func(vals ...Value) []int {
			var out []int
			for id, row := range oracle {
				for _, v := range vals {
					if row[ci] == v {
						out = append(out, id)
						break
					}
				}
			}
			return out
		}
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		for _, v := range probes[:min(len(probes), 24)] {
			if got, want := tab.Lookup(c.Name, v), rowsOf(v); !reflect.DeepEqual(append([]int(nil), got...), want) {
				t.Errorf("seed %d: Lookup(%s, %#v) = %v, want %v", seed, c.Name, v, got, want)
			}
		}
		set := []Value{probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]}
		if got, want := tab.LookupIn(c.Name, set), rowsOf(set...); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: LookupIn(%s, %#v) = %v, want %v", seed, c.Name, set, got, want)
		}

		// SegmentZoneOverlaps: evidence exactly where a numeric column has
		// rows, and never a false "cannot overlap".
		nseg := NumSegments(len(oracle), tab.SegmentSize())
		for si := 0; si <= nseg; si++ {
			lo, hi := float64(rng.Intn(6))-1, float64(rng.Intn(6))+1
			overlaps, has := tab.SegmentZoneOverlaps(c.Name, si, lo, hi)
			if has != (numeric(c.Kind) && si < nseg) {
				t.Errorf("seed %d: SegmentZoneOverlaps(%s, seg %d) hasZone = %v", seed, c.Name, si, has)
			}
			if !has {
				continue
			}
			zmin, zmax := math.Inf(1), math.Inf(-1)
			for _, row := range oracle[si*tab.SegmentSize() : min((si+1)*tab.SegmentSize(), len(oracle))] {
				if f := row[ci].FloatOrNaN(); !math.IsNaN(f) {
					zmin, zmax = math.Min(zmin, f), math.Max(zmax, f)
				}
			}
			if want := zmin <= zmax && zmin <= hi && zmax >= lo; overlaps != want {
				t.Errorf("seed %d: SegmentZoneOverlaps(%s, seg %d, [%g, %g]) = %v, segment spans [%g, %g]",
					seed, c.Name, si, lo, hi, overlaps, zmin, zmax)
			}
		}
	}
}

// TestAppendRejectsInexactInt: ±2^53 is the last integer every float64
// column holds exactly; one past it is refused — in an Int column and
// when widening into a Float column — with table, column and value in
// the error, and nothing of the batch lands.
func TestAppendRejectsInexactInt(t *testing.T) {
	tab := NewTable(citySchema(t))
	const edge = int64(1) << 53
	for _, ok := range []int64{edge, -edge} {
		if _, err := tab.Append([]Value{Int(ok), String("x"), Int(ok)}); err != nil {
			t.Fatalf("%d rejected: %v", ok, err)
		}
	}
	if got := tab.Row(1); got[0] != Int(-edge) || got[2] != Float(float64(-edge)) {
		t.Errorf("-2^53 read back as %#v", got)
	}
	for col, bad := range map[string][]Value{
		"CityKey":    {Int(edge + 1), String("x"), Float(1)},
		"Population": {Int(1), String("x"), Int(-edge - 1)},
	} {
		_, err := tab.AppendFacts([][]Value{{Int(7), String("fine"), Float(7)}, bad})
		if err == nil {
			t.Fatalf("%s: integer beyond 2^53 accepted", col)
		}
		for _, part := range []string{"City." + col, "9007199254740993", "2^53"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not name %q", col, err, part)
			}
		}
	}
	if tab.Len() != 2 {
		t.Errorf("rejected batches landed rows: len %d", tab.Len())
	}
}

// TestReadersRacingAppendsSeeWholeRows: under -race, readers concurrent
// with AppendFacts never observe columns of different lengths — within
// one snapshot by construction, and across calls because every column
// view covers at least the Len observed before it was taken — and never
// a torn row.
func TestReadersRacingAppendsSeeWholeRows(t *testing.T) {
	schema := MustSchema("F", []Column{
		{Name: "K", Kind: KindInt}, {Name: "S", Kind: KindString}, {Name: "V", Kind: KindFloat}, {Name: "B", Kind: KindBool},
	}, "K", nil)
	tab := NewTable(schema)
	rowOf := func(i int) []Value {
		return []Value{Int(int64(i)), String(fmt.Sprintf("s%d", i%50)), Float(float64(i)), Bool(i%2 == 0)}
	}
	const total, batchRows = 40000, 250
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := tab.cur.Load()
				for ci, c := range s.cols {
					if n := len(c.floats) + len(c.codes); n != s.n {
						t.Errorf("snapshot of %d rows holds %d in column %d", s.n, n, ci)
						return
					}
				}
				n := tab.Len()
				if n == 0 {
					continue
				}
				codes, dict := tab.DictColumn("S")
				if k, v := tab.FloatColumn("K"), tab.FloatColumn("V"); len(k) < n || len(v) < n || len(codes) < n {
					t.Errorf("columns shorter than Len %d: K %d V %d S %d", n, len(k), len(v), len(codes))
					return
				}
				id := (n - 1) - g%min(n, 7)
				if got, want := tab.Row(id), rowOf(id); !reflect.DeepEqual(got, want) {
					t.Errorf("Row(%d) = %#v, want %#v", id, got, want)
					return
				}
				if dict[codes[id]] != rowOf(id)[1] {
					t.Errorf("dict code of row %d decodes to %#v", id, dict[codes[id]])
					return
				}
				if got := tab.Lookup("K", Int(int64(id))); len(got) != 1 || got[0] != id {
					t.Errorf("Lookup(K, %d) = %v", id, got)
					return
				}
				if ov, has := tab.SegmentZoneOverlaps("V", id/DefaultSegmentSize, float64(id), float64(id)); has && !ov {
					t.Errorf("zone of row %d's segment excludes its value", id)
					return
				}
			}
		}(g)
	}
	for i := 0; i < total; i += batchRows {
		batch := make([][]Value, batchRows)
		for j := range batch {
			batch[j] = rowOf(i + j)
		}
		if _, err := tab.AppendFacts(batch); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if tab.Len() != total {
		t.Fatalf("Len %d, want %d", tab.Len(), total)
	}
}

// TestResidentBytesPerFact is the storage budget, held in CI: a frozen
// fact-sized table of eight numeric columns retains about 8 bytes per
// cell — no boxed rows, no hash index (Freeze indexes dimension-sized
// tables only). The boxed row store plus six Value-keyed indexes this
// replaced measured ~690 B/fact.
func TestResidentBytesPerFact(t *testing.T) {
	const facts, budget = 200_000, 100
	names := []string{"SalesKey", "ProductKey", "CustomerKey", "DateKey", "PromoKey", "CurrencyKey", "Quantity", "UnitPrice"}
	cols := make([]Column, len(names))
	var fks []ForeignKey
	for i, n := range names {
		cols[i] = Column{Name: n, Kind: KindInt}
		if i >= 1 && i <= 5 {
			fks = append(fks, ForeignKey{Column: n, RefTable: "Dim" + n, RefColumn: n})
		}
	}
	cols[7].Kind = KindFloat
	schema := MustSchema("Fact", cols, "SalesKey", fks)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab := NewTable(schema)
	batch := make([][]Value, 0, DefaultSegmentSize)
	for i := 0; i < facts; i++ {
		batch = append(batch, []Value{
			Int(int64(i + 1)), Int(int64(i % 400)), Int(int64(i % 18000)), Int(int64(i / 200)),
			Int(int64(i % 16)), Int(int64(i % 6)), Int(int64(1 + i%4)), Float(float64(i%977) * 1.25),
		})
		if len(batch) == cap(batch) || i == facts-1 {
			if _, err := tab.AppendFacts(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	batch = nil
	tab.Freeze()
	runtime.GC()
	runtime.ReadMemStats(&after)

	if got := tab.IndexedColumns(); len(got) != 0 {
		t.Errorf("frozen fact-sized table carries hash indexes on %v", got)
	}
	if got, want := tab.ResidentBytes(), int64(facts*len(cols)*8); got != want {
		t.Errorf("ResidentBytes = %d, want %d (8 B per numeric cell)", got, want)
	}
	perFact := float64(after.HeapAlloc-before.HeapAlloc) / facts
	t.Logf("retained heap: %.1f B/fact (columns alone: %d)", perFact, len(cols)*8)
	if perFact > budget {
		t.Errorf("retained heap %.1f B/fact, budget %d", perFact, budget)
	}
	runtime.KeepAlive(tab)

	// A dimension-sized table keeps its key indexes.
	dim := NewTable(MustSchema("Dim", []Column{{Name: "K", Kind: KindInt}, {Name: "P", Kind: KindInt}}, "K",
		[]ForeignKey{{Column: "P", RefTable: "Parent", RefColumn: "K"}}))
	for i := 0; i < 1000; i++ {
		dim.MustAppend(Int(int64(i)), Int(int64(i%10)))
	}
	dim.Freeze()
	if got := dim.IndexedColumns(); !sort.StringsAreSorted(got) || !reflect.DeepEqual(got, []string{"K", "P"}) {
		t.Errorf("frozen dimension table indexes %v, want [K P]", got)
	}
}
