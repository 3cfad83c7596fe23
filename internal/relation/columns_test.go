package relation_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kdap/internal/persist"
	"kdap/internal/relation"
)

// Columns are a table's only storage; every boxed accessor materialises
// from them. The oracle below is the boxed [][]Value the table used to
// hold — it lives only here. The same schedules run against a table that
// never pages and against tables paged to disk through internal/persist
// (hence this external test package), whose page cache is smaller than
// one column and which are flushed and reopened mid-segment.

type (
	value  = relation.Value
	column = relation.Column
)

func isNumeric(k relation.Kind) bool { return k == relation.KindInt || k == relation.KindFloat }

// storedForm is the value a column gives back for an appended v: an Int
// bound for a Float column comes back widened.
func storedForm(c column, v value) value {
	if c.Kind == relation.KindFloat && v.Kind() == relation.KindInt {
		return relation.Float(float64(v.IntVal()))
	}
	return v
}

// randomSchema draws 1–6 columns over all four kinds. Some string
// columns are full-text and some int columns foreign keys, so a paged
// store keeps Bloom filters and term lists on them.
func randomSchema(rng *rand.Rand) *relation.Schema {
	kinds := []relation.Kind{relation.KindString, relation.KindInt, relation.KindFloat, relation.KindBool}
	cols := make([]column, 1+rng.Intn(6))
	var fks []relation.ForeignKey
	for i := range cols {
		cols[i] = column{Name: fmt.Sprintf("C%d", i), Kind: kinds[rng.Intn(len(kinds))]}
		switch {
		case cols[i].Kind == relation.KindString && rng.Intn(2) == 0:
			cols[i].FullText = true
		case cols[i].Kind == relation.KindInt && rng.Intn(2) == 0:
			fks = append(fks, relation.ForeignKey{Column: cols[i].Name, RefTable: "X", RefColumn: "Y"})
		}
	}
	return relation.MustSchema("R", cols, "", fks)
}

// randomCell draws a NULL-able value for c from a small domain, so
// lookups hit, dictionaries repeat and zones stay narrow. Int cells land
// in Float columns too, to exercise widening.
func randomCell(rng *rand.Rand, c column, row int) value {
	if rng.Intn(7) == 0 {
		return relation.Null()
	}
	switch c.Kind {
	case relation.KindString:
		return relation.String(fmt.Sprintf("s%d", rng.Intn(12)))
	case relation.KindInt:
		return relation.Int(int64(row/1000*10 + rng.Intn(10) - 3))
	case relation.KindFloat:
		if rng.Intn(3) == 0 {
			return relation.Int(int64(rng.Intn(5)))
		}
		return relation.Float(float64(row/1000) + float64(rng.Intn(8))*0.25)
	default:
		return relation.Bool(rng.Intn(2) == 0)
	}
}

// store is the table under test: one that never pages (segSize 0) or
// one paged to a segment directory under a page budget of one code
// segment, smaller than any column, so every column evicts.
type store struct {
	t       *testing.T
	schema  *relation.Schema
	segSize int
	dir     string
	tab     *relation.Table
	pager   *persist.Store
}

func newStore(t *testing.T, schema *relation.Schema, segSize int) *store {
	s := &store{t: t, schema: schema, segSize: segSize}
	if segSize == 0 {
		s.tab = relation.NewTable(schema)
		return s
	}
	s.dir = t.TempDir()
	tab, pager, err := persist.CreateBackedTable(s.dir, schema, segSize)
	if err != nil {
		t.Fatal(err)
	}
	s.adopt(tab, pager)
	return s
}

func (s *store) adopt(tab *relation.Table, pager *persist.Store) {
	s.tab, s.pager = tab, pager
	pager.SetCacheBudget(int64(s.segSize * 4))
	s.t.Cleanup(func() { pager.Close() })
}

// reopen flushes a paged table, closes it and opens its directory again.
func (s *store) reopen() {
	if err := s.pager.Flush(); err != nil {
		s.t.Fatal(err)
	}
	if err := s.pager.Close(); err != nil {
		s.t.Fatal(err)
	}
	tab, pager, err := persist.OpenBackedTable(s.dir, s.schema)
	if err != nil {
		s.t.Fatalf("reopen: %v", err)
	}
	s.adopt(tab, pager)
}

// storeModes are the table kinds every schedule runs against.
var storeModes = []struct {
	name    string
	segSize int
}{{"resident", 0}, {"paged64", 64}, {"paged128", 128}}

func TestColumnsMatchBoxedOracle(t *testing.T) {
	for _, mode := range storeModes {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 24; seed++ {
				rng := rand.New(rand.NewSource(seed))
				schema := randomSchema(rng)
				st := newStore(t, schema, mode.segSize)
				// Most tables stay small; every fourth crosses segment
				// boundaries so zones and multi-segment reads are exercised.
				target := 1 + rng.Intn(300)
				if seed%4 == 0 {
					target = 2*st.tab.SegmentSize() + rng.Intn(st.tab.SegmentSize())
				}
				var oracle [][]value
				check := func() { checkAgainstOracle(t, seed, rng, st.tab, oracle) }
				reopened := mode.segSize == 0
				for len(oracle) < target {
					// A random append schedule: single rows and batches, with
					// reads (which build and later tail-extend the lazy
					// indexes) interleaved at random points.
					batch := make([][]value, 1+rng.Intn(1+target/3))
					for i := range batch {
						row := make([]value, len(schema.Columns))
						for ci, c := range schema.Columns {
							row[ci] = randomCell(rng, c, len(oracle)+i)
						}
						batch[i] = row
					}
					start, err := st.tab.AppendFacts(batch)
					if err != nil || start != len(oracle) {
						t.Fatalf("seed %d: AppendFacts = %d, %v; want start %d", seed, start, err, len(oracle))
					}
					for _, row := range batch {
						stored := make([]value, len(row))
						for ci, v := range row {
							stored[ci] = storedForm(schema.Columns[ci], v)
						}
						oracle = append(oracle, stored)
					}
					if !reopened && len(oracle) > mode.segSize && len(oracle)%mode.segSize != 0 {
						st.reopen()
						reopened = true
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
		})
	}
}

func checkAgainstOracle(t *testing.T, seed int64, rng *rand.Rand, tab *relation.Table, oracle [][]value) {
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
	tab.Scan(func(id int, row []value) bool {
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

	ss := tab.SegmentSize()
	nseg := relation.NumSegments(len(oracle), ss)
	for ci, c := range schema.Columns {
		// Filter on "equals the first row's cell".
		probe := oracle[0][ci]
		var want []int
		for id, row := range oracle {
			if row[ci] == probe {
				want = append(want, id)
			}
		}
		got := tab.Filter(func(row []value) bool { return row[ci] == probe })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Filter(%s == %#v) = %d rows, want %d", seed, c.Name, probe, len(got), len(want))
		}

		// The segment readers decode to the oracle, segment by segment;
		// so does the dense float form where the table holds one.
		decoded := make([]value, 0, len(oracle))
		if isNumeric(c.Kind) {
			rd := tab.FloatReader(c.Name)
			for si := 0; si < nseg; si++ {
				for _, f := range rd.FloatSegment(si) {
					v := relation.Null()
					if !math.IsNaN(f) {
						v = relation.Float(f)
						if c.Kind == relation.KindInt {
							v = relation.Int(int64(f))
						}
					}
					decoded = append(decoded, v)
				}
			}
			if dense := tab.FloatColumn(c.Name); dense != nil {
				for id, row := range oracle {
					if f, w := dense[id], row[ci].FloatOrNaN(); f != w && !(math.IsNaN(f) && math.IsNaN(w)) {
						t.Errorf("seed %d: FloatColumn(%s)[%d] = %g, want %#v", seed, c.Name, id, f, row[ci])
						break
					}
				}
			}
		} else {
			rd := tab.DictReader(c.Name)
			dict := rd.Dict()
			for si := 0; si < nseg; si++ {
				for _, code := range rd.CodeSegment(si) {
					v := relation.Null()
					if code >= 0 {
						v = dict[code]
					}
					decoded = append(decoded, v)
				}
			}
		}
		for id, row := range oracle {
			if id >= len(decoded) || decoded[id] != row[ci] {
				t.Errorf("seed %d: segments of %s decode to %d rows, row %d wrong, want %#v", seed, c.Name, len(decoded), id, row[ci])
				break
			}
		}

		// DistinctValues: non-NULL, first-seen order.
		seen := map[value]bool{}
		var distinct []value
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
		probes := append([]value{relation.Null(), relation.String("absent")}, distinct...)
		for _, v := range distinct {
			switch v.Kind() {
			case relation.KindInt:
				probes = append(probes, relation.Float(float64(v.IntVal())))
			case relation.KindFloat:
				if f := v.FloatVal(); f == math.Trunc(f) {
					probes = append(probes, relation.Int(int64(f)))
				}
			}
		}
		rowsOf := func(vals ...value) []int {
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
		set := []value{probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]}
		if got, want := tab.LookupIn(c.Name, set), rowsOf(set...); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: LookupIn(%s, %#v) = %v, want %v", seed, c.Name, set, got, want)
		}

		// SegmentZoneOverlaps: evidence exactly where a numeric column has
		// rows, and never a false "cannot overlap".
		for si := 0; si <= nseg; si++ {
			lo, hi := float64(rng.Intn(6))-1, float64(rng.Intn(6))+1
			overlaps, has := tab.SegmentZoneOverlaps(c.Name, si, lo, hi)
			if has != (isNumeric(c.Kind) && si < nseg) {
				t.Errorf("seed %d: SegmentZoneOverlaps(%s, seg %d) hasZone = %v", seed, c.Name, si, has)
			}
			if !has {
				continue
			}
			zmin, zmax := math.Inf(1), math.Inf(-1)
			for _, row := range oracle[si*ss : min((si+1)*ss, len(oracle))] {
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

// TestReadersRacingAppendsSeeWholeRows: under -race, readers concurrent
// with AppendFacts never observe columns of different lengths — every
// column reader taken after Len covers at least that many rows — and
// never a torn row, whether the rows they read sit in the open tail or,
// on a paged table, in sealed segments paged back in under a budget too
// small to keep them.
func TestReadersRacingAppendsSeeWholeRows(t *testing.T) {
	schema := relation.MustSchema("F", []column{
		{Name: "K", Kind: relation.KindInt}, {Name: "S", Kind: relation.KindString}, {Name: "V", Kind: relation.KindFloat}, {Name: "B", Kind: relation.KindBool},
	}, "K", nil)
	rowOf := func(i int) []value {
		return []value{relation.Int(int64(i)), relation.String(fmt.Sprintf("s%d", i%50)), relation.Float(float64(i)), relation.Bool(i%2 == 0)}
	}
	for _, mode := range storeModes {
		t.Run(mode.name, func(t *testing.T) {
			tab := newStore(t, schema, mode.segSize).tab
			ss := tab.SegmentSize()
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
						n := tab.Len()
						if n == 0 {
							continue
						}
						k, v, s := tab.FloatReader("K"), tab.FloatReader("V"), tab.DictReader("S")
						if k.Len() < n || v.Len() < n || s.Len() < n {
							t.Errorf("columns shorter than Len %d: K %d V %d S %d", n, k.Len(), v.Len(), s.Len())
							return
						}
						id := (n - 1) - g%min(n, 7)
						if got, want := tab.Row(id), rowOf(id); !reflect.DeepEqual(got, want) {
							t.Errorf("Row(%d) = %#v, want %#v", id, got, want)
							return
						}
						if got := s.Dict()[s.CodeSegment(id / ss)[id%ss]]; got != rowOf(id)[1] {
							t.Errorf("dict code of row %d decodes to %#v", id, got)
							return
						}
						if got := tab.Lookup("K", relation.Int(int64(id))); len(got) != 1 || got[0] != id {
							t.Errorf("Lookup(K, %d) = %v", id, got)
							return
						}
						if ov, has := tab.SegmentZoneOverlaps("V", id/ss, float64(id), float64(id)); has && !ov {
							t.Errorf("zone of row %d's segment excludes its value", id)
							return
						}
					}
				}(g)
			}
			for i := 0; i < total; i += batchRows {
				batch := make([][]value, batchRows)
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
		})
	}
}
