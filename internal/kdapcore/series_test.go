package kdapcore

import (
	"context"
	"math"
	"strconv"
	"testing"

	"kdap/internal/olap"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// seriesMart is a one-dimension star for the numeric-series path: fact F
// links to A, whose Score is the numeric attribute. It is dirty on
// purpose — A rows 1 and 2 have no Score, some facts have a NULL or
// dangling key, and every seventh fact has a NULL Amt — and every fact
// of rows [8192, 16384) links to A row 1 or 2, so that whole stretch
// (one resident segment, 64 backed ones) has no Score at all and the
// planner skips it on zone evidence. segSize 0 builds F resident,
// anything else disk-backed at that segment size.
func seriesMart(t *testing.T, n, segSize int) (g *schemagraph.Graph, fact *relation.Table, path schemagraph.JoinPath) {
	t.Helper()
	db := relation.NewDatabase("series")
	a := db.MustCreateTable(relation.MustSchema("A", []relation.Column{
		{Name: "AKey", Kind: relation.KindInt},
		{Name: "Score", Kind: relation.KindFloat},
	}, "AKey", nil))
	for k := int64(1); k <= 60; k++ {
		score := relation.Float(float64(k*k)/7 - 40)
		if k <= 2 {
			score = relation.Null()
		}
		a.MustAppend(relation.Int(k), score)
	}
	schema := relation.MustSchema("F", []relation.Column{
		{Name: "KA", Kind: relation.KindInt},
		{Name: "Amt", Kind: relation.KindFloat},
	}, "", []relation.ForeignKey{{Column: "KA", RefTable: "A", RefColumn: "AKey"}})
	fact = relation.NewTable(schema)
	if segSize > 0 {
		backed, store, err := persist.CreateBackedTable(t.TempDir(), schema, segSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		fact = backed
	}
	ba := relation.NewBatchAppender(fact)
	for i := 0; i < n; i++ {
		h := uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
		h ^= h >> 29
		ka := relation.Int(int64(h>>8)%60 + 1)
		switch {
		case i/8192 == 1:
			ka = relation.Int(int64(h>>8)%2 + 1)
		case h%37 == 0:
			ka = relation.Null()
		case h%41 == 0:
			ka = relation.Int(999)
		}
		amt := relation.Float(float64(h%100000) / 300)
		if i%7 == 3 {
			amt = relation.Null()
		}
		if err := ba.Append([]relation.Value{ka, amt}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ba.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(fact); err != nil {
		t.Fatal(err)
	}
	g = schemagraph.New(db, "F")
	if err := g.AddDimension(&schemagraph.Dimension{
		Name: "DA", Tables: []string{"A"}, GroupBy: []schemagraph.AttrRef{{Table: "A", Attr: "Score"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	path, ok := g.PathFromFact("A", "DA")
	if !ok {
		t.Fatal("no path to A")
	}
	return g, fact, path
}

// The streaming fill is pure execution strategy: for every measure
// constructor — a column, a product, the count and a hand-built Eval
// literal — on resident storage and on 128-row pages, and with a
// stretch of segments skipped on zone evidence, the bucket series it
// folds segment by segment is bit for bit the one AggregateSeries makes
// of the materialised series (which a multi-core run extracts over
// concurrent spans). olap's TestMeasureFormsMatchReference runs the same
// matrix through the group-by, aggregate and pivot kernels.
func TestStreamedSeriesMatchesMaterialised(t *testing.T) {
	const n = 3*8192 + 700
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		segSize int
		measure func(fact *relation.Table) olap.Measure
	}{
		{"vec", 0, func(f *relation.Table) olap.Measure { return olap.ColumnMeasure(f, "Amt") }},
		{"count", 0, func(*relation.Table) olap.Measure { return olap.CountMeasure() }},
		{"cursor", 128, func(f *relation.Table) olap.Measure { return olap.ColumnMeasure(f, "Amt") }},
		{"eval", 0, func(*relation.Table) olap.Measure {
			return olap.Measure{Name: "half", Eval: func(row []relation.Value) float64 { return row[1].AsFloat() / 2 }}
		}},
		{"eval-backed", 128, func(*relation.Table) olap.Measure {
			return olap.Measure{Name: "half", Eval: func(row []relation.Value) float64 { return row[1].AsFloat() / 2 }}
		}},
		{"product", 0, func(f *relation.Table) olap.Measure { return olap.ProductMeasure(f, "AmtByKA", "Amt", "KA") }},
		{"product-backed", 128, func(f *relation.Table) olap.Measure { return olap.ProductMeasure(f, "AmtByKA", "Amt", "KA") }},
		{"count-backed", 128, func(*relation.Table) olap.Measure { return olap.CountMeasure() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, fact, path := seriesMart(t, n, tc.segSize)
			e := NewEngine(g, nil, tc.measure(fact), olap.Sum)
			all, err := e.exec.FactRowsCtx(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			var third []int
			for i := 5; i < n; i += 3 {
				third = append(third, i)
			}
			for ri, rows := range [][]int{all, third, all[8000:17000], all[9000:9100], nil} {
				vals, err := e.exec.NumericSeriesCtx(ctx, rows, "Score", path, e.measure)
				if err != nil {
					t.Fatal(err)
				}
				// Intervals shaped by the rows themselves, and by a narrower
				// sub-dataspace (values outside the domain are dropped).
				for _, iv := range []Intervals{MakeIntervals(vals, 40), MakeIntervals(vals[:len(vals)/9], 7)} {
					want := iv.AggregateSeries(vals)
					tr := telemetry.NewTrace("series")
					sp := &space{key: strconv.Itoa(ri), rows: rows, upTo: n}
					got, err := e.spaceSeries(tr.Context(ctx), sp, "Score", path, iv, nil)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%d rows: %d buckets, want %d", len(rows), len(got), len(want))
					}
					for b := range want {
						if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
							t.Fatalf("%d rows, %d buckets: bucket %d streamed %v, materialised %v", len(rows), len(want), b, got[b], want[b])
						}
						if math.IsNaN(got[b]) {
							t.Fatalf("%d rows: bucket %d is NaN: a NULL measure leaked in", len(rows), b)
						}
					}
					if len(rows) == n && tr.Count(telemetry.SegmentsSkippedZone) == 0 {
						t.Fatal("the Score-less stretch was not skipped on zone evidence")
					}
				}
			}
		})
	}
}

// A fact whose measure is NULL counts for nothing in a categorical
// group-by (aggState.add skips it). A numeric facet must treat it the
// same way: its bucket keeps the sum of its other facts instead of
// turning into NaN — for a net's own series and for a streamed roll-up.
func TestNullMeasureDoesNotPoisonBucket(t *testing.T) {
	const n = 2000
	g, fact, path := seriesMart(t, n, 0)
	e := NewEngine(g, nil, olap.ColumnMeasure(fact, "Amt"), olap.Sum)
	ctx := context.Background()
	rows, err := e.exec.FactRowsCtx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := e.exec.NumericSeriesCtx(ctx, rows, "Score", path, e.measure)
	if err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for _, p := range vals {
		if math.IsNaN(p.Measure) {
			nulls++
		}
	}
	if nulls == 0 {
		t.Fatal("the mart lost its NULL-measure facts")
	}
	iv := MakeIntervals(vals, 10)
	// Two keys, so the roll-up streams its series instead of adopting
	// the net's.
	own, err := e.spaceSeries(ctx, &space{key: "own", rows: rows, upTo: n}, "Score", path, iv, vals)
	if err != nil {
		t.Fatal(err)
	}
	rollup, err := e.spaceSeries(ctx, &space{key: "rollup", rows: rows, upTo: n}, "Score", path, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The per-Score group-by is the categorical view of the same facts.
	byScore, err := e.exec.GroupByCtx(ctx, rows, "Score", path, e.measure, olap.Sum)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, iv.Buckets())
	for score, sum := range byScore {
		want[iv.Find(score.AsFloat())] += sum
	}
	for b := range want {
		if math.IsNaN(own[b]) || math.IsNaN(rollup[b]) {
			t.Fatalf("bucket %d: own %v, roll-up %v: a NULL measure poisoned it", b, own[b], rollup[b])
		}
		if math.Abs(own[b]-want[b]) > 1e-6*(1+math.Abs(want[b])) || own[b] != rollup[b] {
			t.Fatalf("bucket %d: own %v, roll-up %v, group-by says %v", b, own[b], rollup[b], want[b])
		}
	}
}
