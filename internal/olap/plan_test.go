package olap

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"kdap/internal/bitset"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// planMart is a small two-dimension star whose fact table is built to
// give every kind of segment evidence something to bite on:
//
//   - Seq ascends with the row ID (the ingest-clustered case), so a
//     bound on it leaves a contiguous run of segments;
//   - Noise is uncorrelated with row order and NULL on ~10% of rows, and
//     NULL on every row of one band — an empty (all-NULL) zone;
//   - KA links to dimension A at random (sometimes NULL, sometimes
//     dangling), except in one band where every row links to A rows
//     whose Score is NULL — an empty *attribute* zone;
//   - KB is banded (long runs of one key), so a constraint on B has no
//     member in most segments — bit evidence.
//
// Row i is a pure function of i (rowAt), so a resident table, a backed
// one and any append schedule over either hold identical data.
type planMart struct {
	g      *schemagraph.Graph
	ex     *Executor
	fact   *relation.Table
	store  *persist.Store // nil for a resident fact table
	pathA  schemagraph.JoinPath
	pathB  schemagraph.JoinPath
	aName  map[int64]relation.Value // AKey → Name, read off the dimension rows
	aScore map[int64]relation.Value // AKey → Score (possibly NULL)
	bLabel map[int64]relation.Value // BKey → Label
}

const (
	planNA, planNB = 12, 6
	planBand       = 700 // rows per KB band; NULL bands are multiples of it
)

func planFactSchema() *relation.Schema {
	return relation.MustSchema("F", []relation.Column{
		{Name: "Seq", Kind: relation.KindInt},
		{Name: "Noise", Kind: relation.KindFloat},
		{Name: "KA", Kind: relation.KindInt},
		{Name: "KB", Kind: relation.KindInt},
	}, "", []relation.ForeignKey{
		{Column: "KA", RefTable: "A", RefColumn: "AKey"},
		{Column: "KB", RefTable: "B", RefColumn: "BKey"},
	})
}

// rowAt generates fact row i.
func rowAt(i int) []relation.Value {
	h := uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	band := i / planBand
	noise := relation.Float(float64(h%1000) / 10)
	if h%10 == 0 || band == 3 {
		noise = relation.Null()
	}
	ka := relation.Int(int64(h>>8)%planNA + 1)
	switch {
	case band == 5:
		ka = relation.Int(int64(h>>8)%2 + 1) // A rows 1 and 2 carry NULL Score
	case h%37 == 0:
		ka = relation.Null()
	case h%41 == 0:
		ka = relation.Int(999) // dangling
	}
	return []relation.Value{
		relation.Int(int64(i)), noise, ka, relation.Int(int64(band%planNB) + 1),
	}
}

// buildPlanMart builds the mart over n fact rows, resident when segSize
// is 0 and disk-backed with that segment size otherwise.
func buildPlanMart(t *testing.T, n, segSize int) *planMart {
	t.Helper()
	db := relation.NewDatabase("plan")
	a := db.MustCreateTable(relation.MustSchema("A", []relation.Column{
		{Name: "AKey", Kind: relation.KindInt},
		{Name: "Name", Kind: relation.KindString},
		{Name: "Score", Kind: relation.KindFloat},
	}, "AKey", nil))
	b := db.MustCreateTable(relation.MustSchema("B", []relation.Column{
		{Name: "BKey", Kind: relation.KindInt},
		{Name: "Label", Kind: relation.KindString},
	}, "BKey", nil))
	m := &planMart{
		aName: map[int64]relation.Value{}, aScore: map[int64]relation.Value{}, bLabel: map[int64]relation.Value{},
	}
	for k := int64(1); k <= planNA; k++ {
		score := relation.Float(float64(k*k) / 2)
		if k <= 2 {
			score = relation.Null()
		}
		name := relation.String(string(rune('a' + k%5)))
		a.MustAppend(relation.Int(k), name, score)
		m.aName[k], m.aScore[k] = name, score
	}
	for k := int64(1); k <= planNB; k++ {
		label := relation.String(string(rune('p' + k%3)))
		b.MustAppend(relation.Int(k), label)
		m.bLabel[k] = label
	}
	fact := relation.NewTable(planFactSchema())
	if segSize > 0 {
		backed, store, err := persist.CreateBackedTable(t.TempDir(), planFactSchema(), segSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		fact, m.store = backed, store
	}
	ba := relation.NewBatchAppender(fact)
	for i := 0; i < n; i++ {
		if err := ba.Append(rowAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ba.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	g := schemagraph.New(db, "F")
	for _, d := range []*schemagraph.Dimension{
		{Name: "DA", Tables: []string{"A"}, GroupBy: []schemagraph.AttrRef{{Table: "A", Attr: "Name"}, {Table: "A", Attr: "Score"}}},
		{Name: "DB", Tables: []string{"B"}, GroupBy: []schemagraph.AttrRef{{Table: "B", Attr: "Label"}}},
	} {
		if err := g.AddDimension(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	var ok bool
	if m.pathA, ok = g.PathFromFact("A", "DA"); !ok {
		t.Fatal("no path to A")
	}
	if m.pathB, ok = g.PathFromFact("B", "DB"); !ok {
		t.Fatal("no path to B")
	}
	m.g, m.fact, m.ex = g, fact, NewExecutor(g)
	return m
}

// --- the row-at-a-time oracle ---

// satisfies evaluates one constraint on one boxed fact row: a range on
// a fact column reads the row itself, any other constraint looks the
// foreign key up in maps read straight off the dimension rows.
func (m *planMart) satisfies(row []relation.Value, c Constraint) bool {
	if c.Table == "F" {
		v := row[m.fact.Schema().ColumnIndex(c.Attr)]
		return !v.IsNull() && c.Range.Contains(v.AsFloat())
	}
	var fk relation.Value
	var attr map[int64]relation.Value
	switch {
	case c.Table == "A" && c.Attr == "Score":
		fk, attr = row[2], m.aScore
	case c.Table == "A":
		fk, attr = row[2], m.aName
	case c.Table == "B":
		fk, attr = row[3], m.bLabel
	}
	if fk.IsNull() {
		return false
	}
	v, linked := attr[fk.IntVal()]
	if !linked {
		return false
	}
	if c.Range != nil {
		return !v.IsNull() && c.Range.Contains(v.AsFloat())
	}
	for _, want := range c.Values {
		if v == want {
			return true
		}
	}
	return false
}

// score returns the A.Score a fact row reaches, NaN when NULL/unlinked.
func (m *planMart) score(row []relation.Value) float64 {
	if row[2].IsNull() {
		return math.NaN()
	}
	v, linked := m.aScore[row[2].IntVal()]
	if !linked || v.IsNull() {
		return math.NaN()
	}
	return v.AsFloat()
}

// oracleRows is the reference for the intersection: walk [lo, hi) one
// boxed row at a time, keeping rows that satisfy every constraint.
func (m *planMart) oracleRows(lo, hi int, cs []Constraint) []int {
	var out []int
	lo, hi = max(lo, 0), min(hi, m.fact.Len())
rows:
	for r := lo; r < hi; r++ {
		row := m.fact.Row(r)
		for _, c := range cs {
			if !m.satisfies(row, c) {
				continue rows
			}
		}
		out = append(out, r)
	}
	return out
}

func (m *planMart) oracleSeries(rows []int) []ValueMeasure {
	out := []ValueMeasure{}
	for _, r := range rows {
		row := m.fact.Row(r)
		if s := m.score(row); !math.IsNaN(s) {
			out = append(out, ValueMeasure{Value: s, Measure: row[0].AsFloat()})
		}
	}
	return out
}

// --- random scan descriptions ---

func (m *planMart) randConstraints(rng *rand.Rand) []Constraint {
	var cs []Constraint
	if rng.Intn(3) > 0 {
		vals := []relation.Value{relation.String(string(rune('a' + rng.Intn(5))))}
		if rng.Intn(2) == 0 {
			vals = append(vals, relation.String(string(rune('a'+rng.Intn(5)))))
		}
		cs = append(cs, Constraint{Table: "A", Attr: "Name", Values: vals, Path: m.pathA})
	}
	if rng.Intn(3) > 0 {
		cs = append(cs, Constraint{Table: "B", Attr: "Label",
			Values: []relation.Value{relation.String(string(rune('p' + rng.Intn(3))))}, Path: m.pathB})
	}
	// Range constraints: the clustered fact column, the NULL-holding one,
	// and a dimension attribute with NULL cells.
	if rng.Intn(2) == 0 {
		cs = append(cs, m.rangeOn("F", "Seq", randInterval(rng, func() float64 { return float64(rng.Intn(m.fact.Len() + 1)) })))
	}
	if rng.Intn(2) == 0 {
		cs = append(cs, m.rangeOn("F", "Noise", randInterval(rng, func() float64 { return float64(rng.Intn(1000)) / 10 })))
	}
	if rng.Intn(2) == 0 {
		cs = append(cs, m.rangeOn("A", "Score", randInterval(rng, func() float64 {
			k := float64(rng.Intn(planNA) + 1)
			return k * k / 2
		})))
	}
	return cs
}

// rangeOn is a range constraint on F's own column or on A's Score.
func (m *planMart) rangeOn(table, attr string, iv Interval) Constraint {
	c := Constraint{Table: table, Attr: attr, Range: &iv}
	if table == "A" {
		c.Path = m.pathA
	}
	return c
}

// randInterval draws an interval whose ends come from value (values the
// column holds, so closed and open ends both bite), each end sometimes
// open and sometimes unbounded; sometimes a point.
func randInterval(rng *rand.Rand, value func() float64) Interval {
	iv := Interval{Lo: value(), Hi: value(), LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0}
	if iv.Hi < iv.Lo {
		iv.Lo, iv.Hi = iv.Hi, iv.Lo
	}
	switch rng.Intn(5) {
	case 0:
		iv.Lo = math.Inf(-1)
	case 1:
		iv.Hi = math.Inf(1)
	case 2:
		iv = Interval{Lo: iv.Lo, Hi: iv.Lo} // equality
	}
	return iv
}

func sameRows(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

// checkPlanned runs one random scan description through both producers
// and compares each with the oracle.
func (m *planMart) checkPlanned(ctx context.Context, t *testing.T, rng *rand.Rand) {
	t.Helper()
	n := m.fact.Len()
	lo, hi := rng.Intn(n+200)-100, rng.Intn(n+200)-100
	if rng.Intn(4) == 0 {
		lo, hi = 0, n+rng.Intn(50) // whole table, hi past the end
	}
	cs := m.randConstraints(rng)

	got, err := m.ex.FactRowsInRange(ctx, cs, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if want := m.oracleRows(lo, hi, cs); !sameRows(got, want) {
		t.Fatalf("FactRowsInRange(%v, [%d,%d)) = %d rows, oracle %d", cs, lo, hi, len(got), len(want))
	}

	series, err := m.ex.NumericSeriesCtx(ctx, got, "Score", m.pathA, ColumnMeasure(m.fact, "Seq"))
	if err != nil {
		t.Fatal(err)
	}
	if want := m.oracleSeries(got); !reflect.DeepEqual(series, want) {
		t.Fatalf("series over %d rows: %d pairs, oracle %d", len(got), len(series), len(want))
	}
}

// TestPlannedRowsMatchOracle is the planner's property test: random
// constraint sets (IN-lists and ranges on fact columns and a dimension
// attribute) × [lo,hi) ranges × append schedules, over a resident table
// (8192-row segments) and a backed one (128-row segments, sometimes
// ending exactly on a segment boundary), serial and fanned out. Every
// producer must return exactly the oracle's rows.
func TestPlannedRowsMatchOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, seg   int
		parallel bool
	}{
		{"resident/serial", 19_000, 0, false},
		{"resident/parallel", 19_000, 0, true},
		{"backed/serial", 128 * 29, 128, false},
		{"backed/parallel", 128*29 + 77, 128, true},
		{"empty", 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.parallel {
				forceStriping(t, 64)
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			}
			m := buildPlanMart(t, tc.n, tc.seg)
			rng := rand.New(rand.NewSource(int64(tc.n) + 7))
			next := tc.n
			tr := telemetry.NewTrace("plan")
			ctx := tr.Context(context.Background())
			for round := 0; round < 6; round++ {
				for trial := 0; trial < 12; trial++ {
					m.checkPlanned(ctx, t, rng)
				}
				// Append a batch: sometimes a few rows, sometimes enough to
				// seal the tail segment and open new ones.
				grow := []int{1, 40, 128, 300, 9000}[rng.Intn(5)]
				if tc.seg > 0 && grow > 1000 {
					grow = 5*tc.seg + 3
				}
				batch := make([][]relation.Value, grow)
				for i := range batch {
					batch[i] = rowAt(next + i)
				}
				if _, err := m.fact.AppendFacts(batch); err != nil {
					t.Fatal(err)
				}
				next += grow
			}
			if tc.n > 0 && (tr.Count(telemetry.SegmentsScanned) == 0 || tr.Count(telemetry.SegmentsSkippedZone) == 0 || tr.Count(telemetry.SegmentsSkippedBits) == 0) {
				t.Errorf("planner verdicts never exercised: %+v", tr.Event())
			}
			if tc.parallel && tr.Count(telemetry.ParallelScans) == 0 {
				t.Error("no scan fanned out")
			}
		})
	}
}

// planCounts runs fn under a fresh trace and returns the planner
// verdicts it counted.
func planCounts(fn func(ctx context.Context)) (scanned, zone, bits int64) {
	tr := telemetry.NewTrace("plan")
	fn(tr.Context(context.Background()))
	return tr.Count(telemetry.SegmentsScanned), tr.Count(telemetry.SegmentsSkippedZone), tr.Count(telemetry.SegmentsSkippedBits)
}

// Zone evidence is consulted where a fact column's range builds its
// bitset: on the clustered column it skips exactly the segments the
// layout predicts, on an uncorrelated column none, and the planner then
// leaves the surviving segments as one run, clipped to the range asked.
func TestPlanZoneEvidence(t *testing.T) {
	m := buildPlanMart(t, 1000, 128) // segments 0..7, the last 104 rows
	ctx := context.Background()
	var s *bitset.Set
	_, zone, _ := planCounts(func(ctx context.Context) {
		var err error
		if s, err = m.ex.constraintSet(ctx, m.rangeOn("F", "Seq", Interval{Lo: 730, Hi: math.Inf(1)})); err != nil {
			t.Fatal(err)
		}
	})
	if zone != 5 || s.Count() != 270 {
		t.Fatalf("Seq>=730: zone-skipped %d, %d members", zone, s.Count())
	}
	var runs []span
	scanned, zone, bits := planCounts(func(ctx context.Context) { runs = m.ex.planRuns(ctx, 0, 1000, []*bitset.Set{s}) })
	if !reflect.DeepEqual(runs, []span{{640, 1000}}) || scanned != 3 || zone != 0 || bits != 5 {
		t.Fatalf("Seq>=730: runs=%v scanned=%d zone=%d bits=%d", runs, scanned, zone, bits)
	}
	// A range clipped inside segments keeps its own ends.
	upTo800, err := m.ex.constraintSet(ctx, m.rangeOn("F", "Seq", Interval{Lo: 0, Hi: 800}))
	if err != nil {
		t.Fatal(err)
	}
	if runs = m.ex.planRuns(ctx, 700, 900, []*bitset.Set{upTo800}); !reflect.DeepEqual(runs, []span{{700, 896}}) {
		t.Fatalf("clipped range runs = %v", runs)
	}
	if _, zone, _ = planCounts(func(ctx context.Context) {
		if _, err := m.ex.constraintSet(ctx, m.rangeOn("F", "Noise", Interval{Lo: 40, Hi: 60})); err != nil {
			t.Fatal(err)
		}
	}); zone != 0 {
		t.Fatalf("uncorrelated column skipped %d segments", zone)
	}
}

// On a backed table a range build never pages in a segment its zone
// skipped: over a cold page cache it reads exactly the sealed segments
// whose zone overlaps the interval, and an extension over appended rows
// reads only the segments those rows fall in.
func TestRangeBuildPagesNoSkippedSegment(t *testing.T) {
	m := buildPlanMart(t, 128*9+5, 128) // sealed segments 0..8, 5 rows open
	m.store.DropCache()
	before := m.store.Stats()
	var s *bitset.Set
	_, zone, _ := planCounts(func(ctx context.Context) {
		var err error
		if s, err = m.ex.constraintSet(ctx, m.rangeOn("F", "Seq", Interval{Lo: 128 * 6, Hi: math.Inf(1)})); err != nil {
			t.Fatal(err)
		}
	})
	// Segments 6, 7 and 8 are read from disk; 0..5 are skipped unread.
	if got := m.store.Stats().PagedIn - before.PagedIn; zone != 6 || got != 3 {
		t.Fatalf("Seq>=768: zone-skipped %d, paged in %d, want 6 and 3", zone, got)
	}
	if want := m.oracleRows(0, m.fact.Len(), []Constraint{m.rangeOn("F", "Seq", Interval{Lo: 128 * 6, Hi: math.Inf(1)})}); !sameRows(s.ToSlice(), want) {
		t.Fatalf("Seq>=768: %d rows, oracle %d", s.Count(), len(want))
	}
	// An interval every zone misses reads nothing at all.
	m.store.DropCache()
	before = m.store.Stats()
	if _, zone, _ = planCounts(func(ctx context.Context) {
		if _, err := m.ex.constraintSet(ctx, m.rangeOn("F", "Seq", Interval{Lo: -5, Hi: -1})); err != nil {
			t.Fatal(err)
		}
	}); zone != 10 || m.store.Stats().PagedIn != before.PagedIn {
		t.Fatalf("Seq<=-1: zone-skipped %d of 10, paged in %d", zone, m.store.Stats().PagedIn-before.PagedIn)
	}
}

// Bit evidence: a constraint with members in one KB band survives only
// in the segments that band touches; composed with a range on the
// clustered column only the segment both reach survives, and the range
// build's zone skips show again as the planner's bit skips.
func TestPlanBitEvidence(t *testing.T) {
	m := buildPlanMart(t, 2100, 128) // KB bands of 700 rows: keys 1,2,3
	ctx := context.Background()
	s, err := m.ex.constraintSet(ctx, Constraint{Table: "B", Attr: "Label",
		Values: []relation.Value{m.bLabel[2]}, Path: m.pathB})
	if err != nil {
		t.Fatal(err)
	}
	// Label of key 2 is unique among keys 1..3 → rows [700,1400) →
	// segments 5 (640..767) through 10 (1280..1407).
	var runs []span
	scanned, zone, bits := planCounts(func(ctx context.Context) { runs = m.ex.planRuns(ctx, 0, 2100, []*bitset.Set{s}) })
	if !reflect.DeepEqual(runs, []span{{640, 1408}}) || scanned != 6 || bits != 11 || zone != 0 {
		t.Fatalf("band constraint: runs=%v scanned=%d zone=%d bits=%d", runs, scanned, zone, bits)
	}
	scanned, zone, bits = planCounts(func(ctx context.Context) {
		r, err := m.ex.constraintSet(ctx, m.rangeOn("F", "Seq", Interval{Lo: 1300, Hi: math.Inf(1)}))
		if err != nil {
			t.Fatal(err)
		}
		runs = m.ex.planRuns(ctx, 0, 2100, []*bitset.Set{s, r})
	})
	if !reflect.DeepEqual(runs, []span{{1280, 1408}}) || scanned != 1 || zone != 10 || bits != 16 {
		t.Fatalf("composed: runs=%v scanned=%d zone=%d bits=%d", runs, scanned, zone, bits)
	}
}

// stripes must preserve order and content, cut exactly kernelStripes
// groups with the leading total%kernelStripes one row longer, leave its
// input as it was, and over one row set cut the float kernels' layout.
func TestStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var spans []span
		at := 0
		for i := rng.Intn(6) + 1; i > 0; i-- {
			at += rng.Intn(50)
			w := rng.Intn(400)
			spans = append(spans, span{at, at + w})
			at += w
		}
		if trial%10 == 0 {
			spans = []span{{0, at}} // one row set
		}
		input := slices.Clone(spans)
		var want, got []int
		for _, sp := range spans {
			for x := sp.lo; x < sp.hi; x++ {
				want = append(want, x)
			}
		}
		groups := stripes(spans)
		if !reflect.DeepEqual(spans, input) {
			t.Fatalf("stripes changed its input: %v, was %v", spans, input)
		}
		if len(groups) != kernelStripes {
			t.Fatalf("%d groups", len(groups))
		}
		base, rem := len(want)/kernelStripes, len(want)%kernelStripes
		for gi, g := range groups {
			size := 0
			for _, sp := range g {
				size += sp.hi - sp.lo
				for x := sp.lo; x < sp.hi; x++ {
					got = append(got, x)
				}
			}
			wantSize := base
			if gi < rem {
				wantSize++
			}
			if size != wantSize {
				t.Fatalf("group %d holds %d rows, want %d", gi, size, wantSize)
			}
			if len(spans) == 1 && size > 0 {
				lo := spans[0].lo + gi*base + min(gi, rem)
				if !reflect.DeepEqual(g, []span{{lo, lo + size}}) {
					t.Fatalf("row set of %d: group %d is %v, want one span from %d", at, gi, g, lo)
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("stripes lost or reordered rows: %v", spans)
		}
	}
}

// Zones planted while the tail segment held a handful of rows must widen
// when an append lands values outside them in that same segment. Every
// range over the grown table must match the oracle, built cold and
// extended from the pre-append set alike; a stale zone would skip the
// tail segment and lose rows.
func TestZonesWidenPastAppendedRows(t *testing.T) {
	for name, tc := range map[string]struct{ n, seg int }{
		"resident": {5, 0},
		"backed":   {128*3 + 5, 128},
	} {
		t.Run(name, func(t *testing.T) {
			m := buildPlanMart(t, tc.n, tc.seg)
			ctx := context.Background()
			probe := func() {
				t.Helper()
				n := m.fact.Len()
				for _, iv := range []Interval{{Lo: 0, Hi: 3}, {Lo: 50, Hi: 51}, {Lo: 97, Hi: 100}} {
					cs := []Constraint{m.rangeOn("F", "Noise", iv)}
					for _, ex := range []*Executor{m.ex, NewExecutor(m.g)} {
						got, err := ex.FactRowsInRange(ctx, cs, 0, n)
						if err != nil {
							t.Fatal(err)
						}
						if want := m.oracleRows(0, n, cs); !sameRows(got, want) {
							t.Fatalf("Noise in %v over %d rows: %d rows, oracle %d", iv, n, len(got), len(want))
						}
					}
				}
			}
			probe()
			for _, grow := range []int{40, 3000} {
				batch := make([][]relation.Value, grow)
				for i := range batch {
					batch[i] = rowAt(m.fact.Len() + i)
				}
				if _, err := m.fact.AppendFacts(batch); err != nil {
					t.Fatal(err)
				}
				probe()
			}
		})
	}
}
