package kdapcore

import (
	"context"
	"math"
	"testing"

	"kdap/internal/schemagraph"
)

// Parallel exploration must produce byte-identical facets to sequential.
func TestExploreParallelEquivalence(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	seq := DefaultExploreOptions()
	par := DefaultExploreOptions()
	par.Parallel = true
	fs, err := e.ExploreCtx(context.Background(), sn, seq)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := e.ExploreCtx(context.Background(), sn, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Dimensions) != len(fp.Dimensions) {
		t.Fatalf("dimension counts differ: %d vs %d", len(fs.Dimensions), len(fp.Dimensions))
	}
	for i := range fs.Dimensions {
		ds, dp := fs.Dimensions[i], fp.Dimensions[i]
		if ds.Dimension != dp.Dimension || len(ds.Attributes) != len(dp.Attributes) {
			t.Fatalf("dimension %d differs: %v vs %v", i, ds.Dimension, dp.Dimension)
		}
		for j := range ds.Attributes {
			as, ap := ds.Attributes[j], dp.Attributes[j]
			if as.Attr != ap.Attr || as.Score != ap.Score || len(as.Instances) != len(ap.Instances) {
				t.Errorf("facet %s/%s differs between modes", ds.Dimension, as.Attr.Attr)
			}
			for k := range as.Instances {
				if as.Instances[k] != ap.Instances[k] {
					t.Errorf("instance %d of %s differs", k, as.Attr.Attr)
				}
			}
		}
	}
}

// Pinned attributes survive the top-k cut (§7 hybrid consistency).
func TestExplorePinnedAttributes(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	base := DefaultExploreOptions()
	base.TopKAttrs = 1
	f1, err := e.ExploreCtx(context.Background(), sn, base)
	if err != nil {
		t.Fatal(err)
	}
	// Find a Customer attribute NOT shown at k=1.
	shown := map[schemagraph.AttrRef]bool{}
	for _, d := range f1.Dimensions {
		for _, a := range d.Attributes {
			shown[a.Attr] = true
		}
	}
	var hidden schemagraph.AttrRef
	for _, d := range e.Graph().Dimensions() {
		for _, gb := range d.GroupBy {
			if !shown[gb] {
				hidden = gb
			}
		}
	}
	if hidden == (schemagraph.AttrRef{}) {
		t.Skip("nothing hidden at k=1")
	}
	pinnedOpts := base
	pinnedOpts.Pinned = []schemagraph.AttrRef{hidden}
	f2, err := e.ExploreCtx(context.Background(), sn, pinnedOpts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range f2.Dimensions {
		for _, a := range d.Attributes {
			if a.Attr == hidden {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("pinned attribute %v not shown", hidden)
	}
}

// The subspace cache returns identical row sets and survives repeated
// exploration.
func TestSubspaceRowsCached(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	sn := nets[0]
	a := subspaceRows(t, e, sn)
	b := subspaceRows(t, e, sn)
	if len(a) != len(b) {
		t.Fatal("cached rows differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cached rows differ")
		}
	}
	// Many distinct nets must not grow the cache unboundedly (eviction
	// path exercised; behavior stays correct).
	for _, q := range []string{"Projectors", "Columbus", "LCD", "Seattle", "Portland"} {
		ns, _ := e.DifferentiateCtx(context.Background(), q)
		for _, n := range ns {
			_ = subspaceRows(t, e, n)
		}
	}
	c := subspaceRows(t, e, sn)
	if len(c) != len(a) {
		t.Fatal("rows changed after eviction churn")
	}
}

func TestExploreConcurrentSessions(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(i int) {
			opts := DefaultExploreOptions()
			opts.Parallel = i%2 == 0
			_, err := e.ExploreCtx(context.Background(), nets[i%len(nets)], opts)
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// Greedy and annealed merges are both exposed through facet options via
// MergeIntervals / MergeIntervalsGreedy; sanity-check they agree on a
// trivially mergeable series.
func TestMergeAlgorithmsAgreeOnEasySeries(t *testing.T) {
	x := []float64{1, 1, 1, 10, 10, 10, 100, 100, 100}
	y := []float64{2, 2, 2, 20, 20, 20, 200, 200, 200}
	cfg := AnnealConfig{K: 3, L: 4, N: 300, AcceptProb: 0.25, Seed: 1}
	sa := MergeIntervals(x, y, cfg)
	gr := MergeIntervalsGreedy(x, y, cfg)
	if math.Abs(sa.Score-gr.Score) > 0.05 {
		t.Errorf("scores diverge: SA %.4f vs greedy %.4f", sa.Score, gr.Score)
	}
}

func TestDrillRangeNarrowsNumeric(t *testing.T) {
	e, sn, f := exploreColumbusLCD(t, Surprise)
	var attr schemagraph.AttrRef
	var role string
	var lo, hi float64
	found := false
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric && len(a.Instances) > 1 {
				attr, role = a.Attr, a.Role
				lo, hi = a.Instances[0].Lo, a.Instances[0].Hi
				found = true
			}
		}
	}
	if !found {
		t.Skip("no numeric facet with multiple ranges")
	}
	drilled, err := e.DrillRange(sn, attr, role, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	before := len(subspaceRows(t, e, sn))
	after := len(subspaceRows(t, e, drilled))
	if after == 0 || after >= before {
		t.Errorf("range drill: %d -> %d rows", before, after)
	}
	if len(drilled.Filters) != len(sn.Filters)+2 {
		t.Errorf("filters = %d", len(drilled.Filters))
	}
	// The drilled subspace's values all lie within the range.
	path, _ := e.Graph().PathFromFact(attr.Table, role)
	vals, err := e.Executor().NumericSeriesCtx(context.Background(), subspaceRows(t, e, drilled), attr.Attr, path, e.Measure())
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range vals {
		if vm.Value < lo || vm.Value > hi {
			t.Fatalf("value %g outside [%g, %g]", vm.Value, lo, hi)
		}
	}
	// Exploring after a range drill works.
	if _, err := e.ExploreCtx(context.Background(), drilled, DefaultExploreOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestDrillRangeOnFactMeasure(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Projectors")
	sn := nets[0]
	drilled, err := e.DrillRange(sn, schemagraph.AttrRef{Table: "TRANSITEM", Attr: "UnitPrice"}, "", 1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	rows := subspaceRows(t, e, drilled)
	if len(rows) == 0 || len(rows) >= len(subspaceRows(t, e, sn)) {
		t.Errorf("fact-measure range drill: %d rows", len(rows))
	}
}

func TestDrillRangeErrors(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Projectors")
	if _, err := e.DrillRange(nets[0], schemagraph.AttrRef{Table: "CUSTOMER", Attr: "Income"}, "Buyer", 10, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := e.DrillRange(nets[0], schemagraph.AttrRef{Table: "GHOST", Attr: "X"}, "Buyer", 1, 2); err == nil {
		t.Error("unreachable table accepted")
	}
}

// A custom interestingness function (here: absolute deviation, "surprise
// in either direction") plugs into the framework per §3's claim.
func TestCustomInterestingness(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	opts := DefaultExploreOptions()
	opts.CustomScore = func(corr float64) float64 { return math.Abs(corr) }
	f, err := e.ExploreCtx(context.Background(), sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted {
				continue
			}
			if a.Score != uninformativeScore && (a.Score < 0 || a.Score > 1) {
				t.Errorf("custom |corr| score out of range: %s = %g", a.Attr, a.Score)
			}
		}
	}
}

// Spearman-based scoring is a drop-in for Pearson and stays in range.
func TestRankCorrelationOption(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	opts := DefaultExploreOptions()
	opts.RankCorrelation = true
	f, err := e.ExploreCtx(context.Background(), sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	base, _ := e.ExploreCtx(context.Background(), sn, DefaultExploreOptions())
	baseScores := map[string]float64{}
	for _, d := range base.Dimensions {
		for _, a := range d.Attributes {
			baseScores[a.Attr.String()] = a.Score
		}
	}
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted {
				continue
			}
			if a.Score != uninformativeScore && (a.Score < -1-1e-9 || a.Score > 1+1e-9) {
				t.Errorf("%s score %g out of range", a.Attr, a.Score)
			}
			if bs, ok := baseScores[a.Attr.String()]; ok && bs != a.Score {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("rank correlation produced identical scores everywhere — option not wired?")
	}
}
