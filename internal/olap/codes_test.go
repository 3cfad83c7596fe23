package olap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// The code-vector width is pure storage: whatever width a dictionary
// lands a column at, and however appends extended or widened it, every
// consumer must see what the boxed reference path sees.

// codeMart is a one-dimension star D ← F. D has one row per name (plus
// one row whose Name is NULL) and a five-valued Band; F links to D at
// random — sometimes NULL, sometimes dangling — and carries a small
// integer measure, so sums are exact in any order and every comparison
// below can be ==. F also carries its own text column, Tag, two facts
// per tag and NULL now and then: a zero-hop attribute whose dictionary
// grows with appends.
type codeMart struct {
	ex   *Executor
	fact *relation.Table
	path schemagraph.JoinPath // D → F
	zero schemagraph.JoinPath // F itself
	nd   int                  // names in D
	rows int                  // facts generated so far
}

func buildCodeMart(t *testing.T, nd int) *codeMart {
	t.Helper()
	db := relation.NewDatabase("codes")
	d := db.MustCreateTable(relation.MustSchema("D", []relation.Column{
		{Name: "DKey", Kind: relation.KindInt},
		{Name: "Name", Kind: relation.KindString},
		{Name: "Band", Kind: relation.KindString},
	}, "DKey", nil))
	for k := 0; k < nd; k++ {
		d.MustAppend(relation.Int(int64(k)), relation.String(fmt.Sprintf("n%05d", k)), relation.String(fmt.Sprintf("b%d", k%5)))
	}
	d.MustAppend(relation.Int(int64(nd)), relation.Null(), relation.String("b0"))
	db.MustCreateTable(relation.MustSchema("F", []relation.Column{
		{Name: "K", Kind: relation.KindInt},
		{Name: "V", Kind: relation.KindFloat},
		{Name: "Tag", Kind: relation.KindString},
	}, "", []relation.ForeignKey{{Column: "K", RefTable: "D", RefColumn: "DKey"}}))
	g := schemagraph.New(db, "F")
	if err := g.AddDimension(&schemagraph.Dimension{
		Name: "DD", Tables: []string{"D"},
		GroupBy: []schemagraph.AttrRef{{Table: "D", Attr: "Name"}, {Table: "D", Attr: "Band"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	path, ok := g.PathFromFact("D", "DD")
	if !ok {
		t.Fatal("no path to D")
	}
	return &codeMart{
		ex: NewExecutor(g), fact: db.Table("F"), path: path,
		zero: schemagraph.JoinPath{Source: "F"}, nd: nd,
	}
}

// factAt generates fact row i: a pure function of i and nd.
func (m *codeMart) factAt(i int) []relation.Value {
	h := uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	h ^= h >> 31
	k := relation.Int(int64(h>>8) % int64(m.nd+1)) // nd is the NULL-named row
	switch {
	case h%29 == 0:
		k = relation.Null()
	case h%31 == 0:
		k = relation.Int(-7) // dangling
	}
	return []relation.Value{k, relation.Float(float64(h%9 + 1)), tagAt(i)}
}

// tagAt is fact i's Tag: tag i/2, first seen in row order (so its code
// is i/2 too), or NULL on every 97th fact.
func tagAt(i int) relation.Value {
	if i%97 == 96 {
		return relation.Null()
	}
	return relation.String(fmt.Sprintf("t%06d", i/2))
}

func (m *codeMart) appendFacts(t testing.TB, n int) {
	batch := make([][]relation.Value, n)
	for i := range batch {
		batch[i] = m.factAt(m.rows + i)
	}
	if _, err := m.fact.AppendFacts(batch); err != nil {
		t.Error(err)
	}
	m.rows += n
}

func sameGroups(got, want map[relation.Value]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("group %v: %v (present %v), want %v", k, g, ok, w)
		}
	}
	return nil
}

// check compares the kernels over the current facts with the boxed
// reference: group-by across measures and aggregates and, when pivot is set, the
// pivot — whose two axes sit at different widths once Name outgrows a
// byte — cell by cell.
func (m *codeMart) check(t *testing.T, rng *rand.Rand, pivot bool) {
	t.Helper()
	all := mustFactRows(t, m.ex, nil)
	n := len(all)
	sets := [][]int{all}
	var sample []int
	for r := 0; r < n; r++ {
		if rng.Intn(3) == 0 {
			sample = append(sample, r)
		}
	}
	sets = append(sets, sample)
	v := ColumnMeasure(m.fact, "V")
	for _, rows := range sets {
		for _, tc := range []struct {
			attr string
			m    Measure
			agg  Agg
		}{{"Name", v, Sum}, {"Name", v, Max}, {"Name", CountMeasure(), Count}, {"Band", v, Min}} {
			got := mustGroupBy(t, m.ex, rows, tc.attr, m.path, tc.m, tc.agg)
			if err := sameGroups(got, groupByRef(m.ex, rows, tc.attr, m.path, tc.m, tc.agg)); err != nil {
				t.Fatalf("nd %d, %d facts, %s/%v over %d rows: %v", m.nd, n, tc.attr, tc.agg, len(rows), err)
			}
		}
		if err := sameGroups(mustGroupBy(t, m.ex, rows, "Tag", m.zero, v, Sum), groupByRef(m.ex, rows, "Tag", m.zero, v, Sum)); err != nil {
			t.Fatalf("nd %d, %d facts, Tag over %d rows: %v", m.nd, n, len(rows), err)
		}
	}
	if cc, _ := m.ex.attrCodes("Name", m.path); cc.width != codeWidth(m.nd) {
		t.Fatalf("nd %d: Name codes are %d bytes wide, want %d", m.nd, cc.width, codeWidth(m.nd))
	}
	m.checkSeries(t, sets, v)
	if !pivot {
		return
	}
	// Cells summed from the generator itself.
	type cell struct{ name, band relation.Value }
	want := map[cell]float64{}
	for _, r := range sample {
		f := m.factAt(r)
		if f[0].IsNull() || f[0].IntVal() < 0 || int(f[0].IntVal()) >= m.nd {
			continue // NULL key, dangling key, or the NULL-named row
		}
		k := int(f[0].IntVal())
		want[cell{relation.String(fmt.Sprintf("n%05d", k)), relation.String(fmt.Sprintf("b%d", k%5))}] += f[1].AsFloat()
	}
	pt := mustPivot(t, m.ex, sample, "Name", m.path, "Band", m.path, v, Sum)
	cells := 0
	for i, rk := range pt.RowKeys {
		for j, ck := range pt.ColKeys {
			w, ok := want[cell{rk, ck}]
			if ok {
				cells++
			}
			if pt.Present[i][j] != ok || pt.Cells[i][j] != w {
				t.Fatalf("nd %d, %d facts: pivot cell (%v, %v) = %v (present %v), want %v (present %v)",
					m.nd, n, rk, ck, pt.Cells[i][j], pt.Present[i][j], w, ok)
			}
		}
	}
	if cells != len(want) {
		t.Fatalf("nd %d, %d facts: pivot holds %d of %d cells", m.nd, n, cells, len(want))
	}
}

// checkSeries compares the numeric series, materialised and folded,
// with one built a row at a time from the generator: DKey through its
// code vector, whose dictionary holds the keys of the rows the facts
// span so far, and the fact column V in place.
func (m *codeMart) checkSeries(t *testing.T, sets [][]int, v Measure) {
	t.Helper()
	for _, rows := range sets {
		for _, tc := range []struct {
			attr  string
			path  schemagraph.JoinPath
			value func(f []relation.Value) (float64, bool)
		}{
			{"DKey", m.path, func(f []relation.Value) (float64, bool) {
				return f[0].AsFloat(), !f[0].IsNull() && f[0].IntVal() >= 0 // NULL or dangling
			}},
			{"V", m.zero, func(f []relation.Value) (float64, bool) { return f[1].AsFloat(), true }},
		} {
			var want []ValueMeasure
			for _, r := range rows {
				f := m.factAt(r)
				if x, ok := tc.value(f); ok {
					want = append(want, ValueMeasure{Value: x, Measure: f[1].AsFloat()})
				}
			}
			var folded []ValueMeasure
			err := m.ex.FoldNumericSeriesCtx(context.Background(), rows, tc.attr, tc.path, v, func(s []ValueMeasure) {
				folded = append(folded, s...)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := mustSeries(t, m.ex, rows, tc.attr, tc.path, v); !slices.Equal(got, want) || !slices.Equal(folded, want) {
				t.Fatalf("nd %d, %d facts, %s series over %d rows: %d pairs materialised, %d folded, want %d (or values differ)",
					m.nd, m.fact.Len(), tc.attr, len(rows), len(got), len(folded), len(want))
			}
		}
	}
}

func TestNarrowCodesMatchWide(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sizes := []int{1, 255, 256, 65535, 65536}
	for i := 0; i < 3; i++ {
		sizes = append(sizes, 1+rng.Intn(70000))
	}
	if testing.Short() {
		sizes = []int{1, 255, 256, 1 + rng.Intn(2000)}
	}
	keyWidths := map[int]bool{} // the DKey series' code widths
	for _, nd := range sizes {
		m := buildCodeMart(t, nd)
		check := func(pivot bool) {
			m.check(t, rng, pivot)
			cc, _ := m.ex.attrCodes("DKey", m.path)
			if cc.width != codeWidth(len(cc.dict)) {
				t.Fatalf("nd %d: DKey codes are %d bytes wide for %d keys", nd, cc.width, len(cc.dict))
			}
			keyWidths[cc.width] = true
		}
		// A random append schedule: the first read builds the vectors,
		// each later one extends them over the appended rows.
		m.appendFacts(t, 1+rng.Intn(2*nd+50))
		batches := rng.Intn(3)
		check(batches == 0)
		for ; batches > 0; batches-- {
			m.appendFacts(t, 1+rng.Intn(nd+50))
			check(batches == 1)
		}
	}
	if !testing.Short() && len(keyWidths) != 3 {
		t.Errorf("the DKey series ran at code widths %v, want 1, 2 and 4", keyWidths)
	}
}

// A numeric dimension attribute holding −0 and +0 has one value for
// them, the first its dictionary saw (the dimension's first row), in the
// series as in the group-by.
func TestSignedZeroIsOneValue(t *testing.T) {
	db := relation.NewDatabase("zeros")
	d := db.MustCreateTable(relation.MustSchema("D", []relation.Column{
		{Name: "DKey", Kind: relation.KindInt},
		{Name: "W", Kind: relation.KindFloat},
	}, "DKey", nil))
	for k, w := range []float64{math.Copysign(0, -1), 0, 1.5} {
		d.MustAppend(relation.Int(int64(k)), relation.Float(w))
	}
	f := db.MustCreateTable(relation.MustSchema("F", []relation.Column{
		{Name: "K", Kind: relation.KindInt},
		{Name: "V", Kind: relation.KindFloat},
	}, "", []relation.ForeignKey{{Column: "K", RefTable: "D", RefColumn: "DKey"}}))
	for i, k := range []int64{1, 0, 2, 1} {
		f.MustAppend(relation.Int(k), relation.Float(float64(i+1)))
	}
	g := schemagraph.New(db, "F")
	if err := g.AddDimension(&schemagraph.Dimension{Name: "DD", Tables: []string{"D"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	path, _ := g.PathFromFact("D", "DD")
	ex := NewExecutor(g)
	rows := mustFactRows(t, ex, nil)
	series := mustSeries(t, ex, rows, "W", path, ColumnMeasure(f, "V"))
	if len(series) != 4 {
		t.Fatalf("series = %v, want 4 pairs", series)
	}
	for i, p := range series {
		if p.Value == 0 && !math.Signbit(p.Value) {
			t.Errorf("pair %d is %+v: +0, want the −0 seen first", i, p)
		}
	}
	groups := mustGroupBy(t, ex, rows, "W", path, ColumnMeasure(f, "V"), Sum)
	if len(groups) != 2 || groups[relation.Float(0)] != 7 {
		t.Fatalf("groups = %v, want {0: 7, 1.5: 3}", groups)
	}
	for k := range groups {
		if k.AsFloat() == 0 && !math.Signbit(k.AsFloat()) {
			t.Errorf("the zero group is keyed +0, want the −0 seen first")
		}
	}
}

// A fact-table attribute's dictionary grows with the facts. When it
// outgrows the vector's width the extension rebuilds the vector one
// width up: codes keep their values, and a reader holding the narrow
// column keeps a whole, unchanged one.
func TestCodeVectorWidensAcrossAppends(t *testing.T) {
	m := buildCodeMart(t, 3)
	read := func(wantWidth int) *codeColumn {
		t.Helper()
		cc, builds := m.ex.attrCodes("Tag", m.zero)
		if cc.width != wantWidth || cc.rows() != m.fact.Len() {
			t.Fatalf("%d facts (%d tags): width %d over %d rows, want width %d", m.fact.Len(), len(cc.dict), cc.width, cc.rows(), wantWidth)
		}
		if builds != 1 {
			t.Fatalf("%d facts: %d code vector builds for one extension, want 1", m.fact.Len(), builds)
		}
		if again, builds := m.ex.attrCodes("Tag", m.zero); again != cc || builds != 0 {
			t.Fatalf("%d facts: a covered column was rebuilt", m.fact.Len())
		}
		for r := 0; r < cc.rows(); r++ {
			want := int32(r / 2)
			if tagAt(r).IsNull() {
				want = -1
			}
			if got := cc.at(r); got != want {
				t.Fatalf("%d facts at width %d: row %d has code %d, want %d", m.fact.Len(), cc.width, r, got, want)
			}
		}
		return cc
	}
	m.appendFacts(t, 2*255) // 255 tags: the last dictionary a byte holds
	narrow := read(1)
	m.appendFacts(t, 2) // 256 tags
	read(2)
	m.appendFacts(t, 2*65535-m.rows) // 65,535 tags: the last two bytes hold
	mid := read(2)
	m.appendFacts(t, 1) // 65,536 tags
	read(4)
	m.appendFacts(t, 1000)
	read(4)
	if narrow.width != 1 || narrow.rows() != 2*255 || narrow.at(2*255-1) != 254 {
		t.Fatalf("the byte-wide column changed under its holder: width %d, %d rows", narrow.width, narrow.rows())
	}
	if mid.width != 2 || mid.rows() != 2*65535 || mid.at(2*65535-1) != 65534 {
		t.Fatalf("the two-byte column changed under its holder: width %d, %d rows", mid.width, mid.rows())
	}
}

// Readers group by the growing fact attribute while a writer appends
// across both width boundaries. Each reader's row set is the prefix it
// observed, so it must count exactly that prefix's facts per tag
// whichever column — narrow, extended or just widened — it was handed.
// Run under -race.
func TestReadersRacingCodeWidening(t *testing.T) {
	m := buildCodeMart(t, 3)
	m.appendFacts(t, 400)
	total := 2*65535 + 5000
	if testing.Short() {
		total = 2*255 + 5000
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last pass over the final table
				default:
				}
				rows := mustFactRows(t, m.ex, nil)
				n := len(rows)
				got, err := m.ex.GroupByCtx(context.Background(), rows, "Tag", m.zero, CountMeasure(), Count)
				if err != nil {
					t.Error(err)
					return
				}
				want := make([]float64, (n+1)/2)
				tags := 0
				for i := 0; i < n; i++ {
					if !tagAt(i).IsNull() {
						if want[i/2]++; want[i/2] == 1 {
							tags++
						}
					}
				}
				if len(got) != tags {
					t.Errorf("%d facts: %d tags, want %d", n, len(got), tags)
					return
				}
				for tag, c := range got {
					var k int
					if _, err := fmt.Sscanf(tag.Str(), "t%d", &k); err != nil || c != want[k] {
						t.Errorf("%d facts: tag %v counts %v facts, want %v (%v)", n, tag, c, want[k], err)
						return
					}
				}
			}
		}()
	}
	for m.rows < total {
		m.appendFacts(t, min(4099, total-m.rows))
	}
	close(done)
	wg.Wait()
	if cc, _ := m.ex.attrCodes("Tag", m.zero); cc.width != codeWidth((total+1)/2) {
		t.Fatalf("final width %d for %d tags", cc.width, (total+1)/2)
	}
}

// TestCodeVectorBytesPerFact is the code-vector budget, held in CI: on
// the 200k-fact AW_ONLINE mart, after a group-by along every group-by
// attribute under every role — the vectors one explore per role leaves
// behind — the vectors average at most 1.5 bytes per fact row each.
// They were 4.0 when every vector was []int32; nearly every attribute
// of the mart has under 255 values and costs a byte.
func TestCodeVectorBytesPerFact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-fact warehouse")
	}
	const facts, budget = 200_000, 1.5
	g := dataset.AWOnlineScaled(facts).Graph
	ex := NewExecutor(g)
	rows := mustFactRows(t, ex, nil)
	for _, d := range g.Dimensions() {
		for _, attr := range d.GroupBy {
			for _, p := range g.JoinPaths(attr.Table) {
				if p.Dim == d.Name {
					mustGroupBy(t, ex, rows, attr.Attr, p, CountMeasure(), Count)
				}
			}
		}
	}
	vectors := len(ex.attrCode)
	got := ex.ResidentBytes()
	var want int64
	for key, cc := range ex.attrCode {
		if cc.rows() != facts || cc.width != codeWidth(len(cc.dict)) {
			t.Errorf("%v: %d rows at width %d for %d values", key, cc.rows(), cc.width, len(cc.dict))
		}
		want += int64(facts * cc.width)
	}
	if got.CodeVectors != want || got.FactToDim != int64(len(ex.factMap)*facts*4) {
		t.Errorf("ResidentBytes = %+v, want %d B of code vectors and %d mappings", got, want, len(ex.factMap))
	}
	perFact := float64(got.CodeVectors) / float64(facts*vectors)
	t.Logf("%d code vectors over %d facts: %.2f B per fact per attribute (budget %.1f, 4.0 as []int32)", vectors, facts, perFact, budget)
	if vectors < 15 {
		t.Errorf("only %d code vectors built; the sweep no longer covers the mart's attributes", vectors)
	}
	if perFact > budget {
		t.Errorf("code vectors average %.2f B per fact per attribute, budget %.1f", perFact, budget)
	}
}

// TestDerivedExtensionAllocatesTail holds the executor's derived vectors
// to the store's growth rule: extended past the length readers were
// handed, not copied whole. On a 200k-fact codeMart, a fact→dimension
// mapping and two code vectors are extended across 50
// appends of 2048 rows; the extensions together may allocate at most
// 4× the bytes the vectors end up holding (copying each vector whole on
// every extension allocated 51×). A call on a vector that already
// covers the table allocates at most once (its key).
func TestDerivedExtensionAllocatesTail(t *testing.T) {
	const facts, appends, batch, budget = 200_000, 50, 2048, 4.0
	m := buildCodeMart(t, 200)
	m.appendFacts(t, facts)
	touch := func() {
		m.ex.factToDim(m.path)
		m.ex.attrCodes("Name", m.path)
		m.ex.attrCodes("Band", m.path)
	}
	touch()
	var allocated uint64
	var ms runtime.MemStats
	for i := 0; i < appends; i++ {
		m.appendFacts(t, batch)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		touch()
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before
	}
	n := m.fact.Len()
	name, _ := m.ex.attrCodes("Name", m.path)
	band, _ := m.ex.attrCodes("Band", m.path)
	f2d := m.ex.factToDim(m.path)
	held := 4*len(f2d) + name.rows()*name.width + band.rows()*band.width
	ratio := float64(allocated) / float64(held)
	t.Logf("%d extensions to %d facts allocated %.1f MB for %.1f MB of vectors: %.1f×", appends, n, float64(allocated)/1e6, float64(held)/1e6, ratio)
	if ratio > budget {
		t.Errorf("extensions allocated %.1f× the bytes the vectors hold, budget %.0f×", ratio, budget)
	}

	// The vectors grown in place hold what a cold build computes.
	fresh := NewExecutor(m.ex.Graph())
	if !slices.Equal(f2d, fresh.factToDim(m.path)) {
		t.Error("extended fact→dimension mapping differs from a cold build")
	}
	for _, attr := range []string{"Name", "Band"} {
		got, _ := m.ex.attrCodes(attr, m.path)
		want, _ := fresh.attrCodes(attr, m.path)
		for r := 0; r < n; r++ {
			if got.at(r) != want.at(r) {
				t.Fatalf("%s: extended code of row %d is %d, a cold build's %d", attr, r, got.at(r), want.at(r))
			}
		}
	}

	for what, call := range map[string]func(){
		"factToDim": func() { m.ex.factToDim(m.path) },
		"attrCodes": func() { m.ex.attrCodes("Name", m.path) },
	} {
		if allocs := testing.AllocsPerRun(100, call); allocs > 1 {
			t.Errorf("%s on a covering vector: %.0f allocations per call, want at most 1", what, allocs)
		}
	}
}

// TestProductMeasureExtendsInPlace: the resident product measure grows
// by the same rule — an extension writes past the length a reader was
// handed, into the same array while it has room, and the reader's slice
// is unchanged.
func TestProductMeasureExtendsInPlace(t *testing.T) {
	m := buildCodeMart(t, 50)
	p := ProductMeasure(m.fact, "KV", "K", "V")
	m.appendFacts(t, 1000)
	p.reader(m.fact) // the cold build
	m.appendFacts(t, 10)
	held := p.reader(m.fact).FloatSegment(0) // extended, with room to grow
	before := slices.Clone(held)
	m.appendFacts(t, 10)
	grown := p.reader(m.fact).FloatSegment(0)
	if len(held) != 1010 || len(grown) != 1020 {
		t.Fatalf("product covers %d then %d rows, want 1010 then 1020", len(held), len(grown))
	}
	if &held[0] != &grown[0] {
		t.Error("the extension copied the product instead of appending in place")
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	if !slices.EqualFunc(held, before, same) {
		t.Error("a reader's held product changed under it")
	}
	for r, got := range grown {
		f := m.factAt(r)
		if want := f[0].AsFloat() * f[1].AsFloat(); !same(got, want) {
			t.Fatalf("product row %d = %v, want %v", r, got, want)
		}
	}
}
