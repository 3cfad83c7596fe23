package kdapcore

import (
	"context"
	"math"
	"strings"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// exploreColumbusLCD picks the Store-path interpretation of the running
// example and explores it.
func exploreColumbusLCD(t *testing.T, mode InterestMode) (*Engine, *StarNet, *Facets) {
	t.Helper()
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if err != nil {
		t.Fatal(err)
	}
	var sn *StarNet
	for _, n := range nets {
		sig := n.DomainSignature()
		if strings.Contains(sig, "LOC.City[Store]") && strings.Contains(sig, "PGROUP.GroupName[Product]") {
			sn = n
			break
		}
	}
	if sn == nil {
		t.Fatal("no Store-city × product-group interpretation")
	}
	opts := DefaultExploreOptions()
	opts.Mode = mode
	f, err := e.ExploreCtx(context.Background(), sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, sn, f
}

func TestExploreBasicShape(t *testing.T) {
	_, sn, f := exploreColumbusLCD(t, Surprise)
	if f.Net != sn {
		t.Error("facets not linked to net")
	}
	if f.SubspaceSize <= 0 || f.TotalAggregate <= 0 {
		t.Fatalf("subspace size %d aggregate %g", f.SubspaceSize, f.TotalAggregate)
	}
	if len(f.Dimensions) == 0 {
		t.Fatal("no dimension facets")
	}
	// Static dimension order is alphabetical (§5.1).
	for i := 1; i < len(f.Dimensions); i++ {
		if f.Dimensions[i].Dimension < f.Dimensions[i-1].Dimension {
			t.Error("dimensions not in static alphabetical order")
		}
	}
	// Facets must include dimensions NOT in the query (§1: time, customer
	// attributes appear although only store city and product were typed).
	names := map[string]bool{}
	for _, d := range f.Dimensions {
		names[d.Dimension] = true
	}
	if !names["Time"] || !names["Customer"] {
		t.Errorf("non-hitted dimensions missing from facets: %v", names)
	}
}

func TestExplorePromotesHitAttributes(t *testing.T) {
	_, _, f := exploreColumbusLCD(t, Surprise)
	var promoted *AttrFacet
	for _, d := range f.Dimensions {
		if d.Dimension != "Product" {
			continue
		}
		if !d.Hitted {
			t.Error("Product dimension should be hitted")
		}
		for _, a := range d.Attributes {
			if a.Promoted {
				promoted = a
			}
		}
	}
	if promoted == nil {
		t.Fatal("no promoted attribute in the Product dimension")
	}
	if promoted.Attr != (schemagraph.AttrRef{Table: "PGROUP", Attr: "GroupName"}) {
		t.Errorf("promoted attr = %v", promoted.Attr)
	}
	if !math.IsInf(promoted.Score, 1) {
		t.Error("promoted attribute must rank first (infinite score)")
	}
	// Its instances are the hit values ("...LCD..." groups).
	if len(promoted.Instances) == 0 {
		t.Fatal("promoted facet has no instances")
	}
	for _, inst := range promoted.Instances {
		if !strings.Contains(inst.Label, "LCD") {
			t.Errorf("promoted instance %q does not match the hit", inst.Label)
		}
		if inst.Aggregate < 0 {
			t.Errorf("negative aggregate %g", inst.Aggregate)
		}
	}
}

func TestExploreRespectsTopK(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	opts := DefaultExploreOptions()
	opts.TopKAttrs = 1
	opts.TopKInstances = 2
	f, err := e.ExploreCtx(context.Background(), sn, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Dimensions {
		nonPromoted := 0
		for _, a := range d.Attributes {
			if !a.Promoted {
				nonPromoted++
			}
			if len(a.Instances) > 2 {
				t.Errorf("%s.%s has %d instances, cap 2", d.Dimension, a.Attr.Attr, len(a.Instances))
			}
		}
		if nonPromoted > 1 {
			t.Errorf("dimension %s has %d ranked attrs, cap 1", d.Dimension, nonPromoted)
		}
	}
}

func TestExploreNumericFacet(t *testing.T) {
	_, _, f := exploreColumbusLCD(t, Surprise)
	var numeric *AttrFacet
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric {
				numeric = a
			}
		}
	}
	if numeric == nil {
		t.Fatal("no numeric facet (Customer Age/Income or Product ListPrice expected)")
	}
	if len(numeric.Instances) < 2 {
		t.Fatalf("numeric facet has %d ranges", len(numeric.Instances))
	}
	// Ranges are contiguous, ordered, and labeled.
	for i, inst := range numeric.Instances {
		if inst.Lo >= inst.Hi {
			t.Errorf("range %d: lo %g >= hi %g", i, inst.Lo, inst.Hi)
		}
		if i > 0 && numeric.Instances[i-1].Hi != inst.Lo {
			t.Errorf("ranges not contiguous at %d", i)
		}
		if inst.Label == "" || !inst.Value.IsNull() {
			t.Errorf("numeric instance rendering: %+v", inst)
		}
	}
}

func TestExploreInstanceScoresEquation2(t *testing.T) {
	// Eq. 2 scores are share differences: each in [-1, 1], and the sum of
	// shares over all DS' categories equals 1, so the facet's displayed
	// instances have bounded scores.
	_, _, f := exploreColumbusLCD(t, Surprise)
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			for _, inst := range a.Instances {
				if inst.Score < -1-1e-9 || inst.Score > 1+1e-9 {
					t.Errorf("%s/%s %q score %g out of range", d.Dimension, a.Attr.Attr, inst.Label, inst.Score)
				}
			}
		}
	}
}

func TestExploreSurpriseInstancesRankedByDeviation(t *testing.T) {
	_, _, f := exploreColumbusLCD(t, Surprise)
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted || a.Numeric {
				continue
			}
			for i := 1; i < len(a.Instances); i++ {
				if math.Abs(a.Instances[i].Score) > math.Abs(a.Instances[i-1].Score)+1e-12 {
					t.Errorf("%s.%s instances not ranked by |deviation| at %d", d.Dimension, a.Attr.Attr, i)
				}
			}
		}
	}
}

func TestExploreBellwetherMode(t *testing.T) {
	_, _, fs := exploreColumbusLCD(t, Surprise)
	_, _, fb := exploreColumbusLCD(t, Bellwether)
	// Surprise scores -min_r corr_r and bellwether max_r corr_r over the
	// same roll-ups, so for any attribute scored in both modes the sum
	// of its two scores is max-min ≥ 0 — unless the partition was
	// uninformative, in which case both modes sink it identically.
	pick := func(f *Facets) map[string]float64 {
		out := map[string]float64{}
		for _, d := range f.Dimensions {
			for _, a := range d.Attributes {
				if !a.Promoted {
					out[a.Attr.String()] = a.Score
				}
			}
		}
		return out
	}
	ss, bb := pick(fs), pick(fb)
	checked := 0
	for k, v := range ss {
		bv, ok := bb[k]
		if !ok {
			continue
		}
		checked++
		if v == uninformativeScore || bv == uninformativeScore {
			if v != bv {
				t.Errorf("%s: uninformative in one mode only (%g vs %g)", k, v, bv)
			}
			continue
		}
		if v+bv < -1e-9 {
			t.Errorf("%s: surprise %g + bellwether %g < 0", k, v, bv)
		}
	}
	if checked == 0 {
		t.Error("no attribute scored in both modes")
	}
	// Bellwether instances rank by contribution, descending.
	for _, d := range fb.Dimensions {
		for _, a := range d.Attributes {
			if a.Promoted || a.Numeric {
				continue
			}
			for i := 1; i < len(a.Instances); i++ {
				if a.Instances[i].Aggregate > a.Instances[i-1].Aggregate+1e-9 {
					t.Errorf("bellwether instances not ranked by aggregate at %s.%s", d.Dimension, a.Attr.Attr)
				}
			}
		}
	}
}

func TestExploreErrors(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	sn := nets[0]
	bad := DefaultExploreOptions()
	bad.TopKAttrs = 0
	if _, err := e.ExploreCtx(context.Background(), sn, bad); err == nil {
		t.Error("zero TopKAttrs accepted")
	}
	// An impossible intersection produces an empty subspace error.
	empty := &StarNet{Query: "x", Groups: []BoundGroup{{
		Group: &HitGroup{Table: "LOC", Attr: "City",
			Hits: []Hit{{Table: "LOC", Attr: "City", Value: relation.String("Atlantis"), Score: 1}}},
		Path: mustPath(t, e, "LOC", "Store"),
	}}}
	if _, err := e.ExploreCtx(context.Background(), empty, DefaultExploreOptions()); err == nil {
		t.Error("empty subspace accepted")
	}
}

func mustPath(t *testing.T, e *Engine, table, role string) schemagraph.JoinPath {
	t.Helper()
	p, ok := e.Graph().PathFromFact(table, role)
	if !ok {
		t.Fatalf("no path for %s[%s]", table, role)
	}
	return p
}

func TestDrillNarrowsSubspace(t *testing.T) {
	e, sn, f := exploreColumbusLCD(t, Surprise)
	// Drill into the first categorical non-promoted instance we find.
	var attr schemagraph.AttrRef
	var role string
	var val relation.Value
	found := false
	for _, d := range f.Dimensions {
		for _, a := range d.Attributes {
			if a.Numeric || len(a.Instances) == 0 {
				continue
			}
			attr, role, val = a.Attr, a.Role, a.Instances[0].Value
			found = true
		}
	}
	if !found {
		t.Fatal("nothing to drill into")
	}
	drilled, err := e.Drill(sn, attr, role, val)
	if err != nil {
		t.Fatal(err)
	}
	before := len(subspaceRows(t, e, sn))
	after := len(subspaceRows(t, e, drilled))
	if after == 0 || after > before {
		t.Errorf("drill produced %d rows from %d", after, before)
	}
	if len(sn.Groups) == len(drilled.Groups) {
		t.Error("drill did not add a constraint")
	}
	// Drilling must not mutate the original net.
	if got := len(subspaceRows(t, e, sn)); got != before {
		t.Error("original net changed by drill")
	}
}

func TestDrillUnreachableAttr(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "Projectors")
	_, err := e.Drill(nets[0], schemagraph.AttrRef{Table: "GHOST", Attr: "X"}, "Store", relation.String("v"))
	if err == nil {
		t.Error("unreachable attribute accepted")
	}
}

func TestInterestModeString(t *testing.T) {
	if Surprise.String() != "surprise" || Bellwether.String() != "bellwether" {
		t.Error("mode names")
	}
	if InterestMode(9).String() != "unknown" {
		t.Error("unknown mode name")
	}
}

// rollupsOf resolves the net's DS' and builds its roll-up spaces.
func rollupsOf(t *testing.T, e *Engine, sn *StarNet) []rollup {
	t.Helper()
	ctx := context.Background()
	local, err := e.subspaceRowsCtx(ctx, sn)
	if err != nil {
		t.Fatal(err)
	}
	rollups, err := e.buildRollupsCtx(ctx, sn, local)
	if err != nil {
		t.Fatal(err)
	}
	return rollups
}

// Roll-up correctness: the background space must be a superset of DS'.
func TestRollupSuperset(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	rows := subspaceRows(t, e, sn)
	inRows := map[int]bool{}
	for _, r := range rows {
		inRows[r] = true
	}
	rollups := rollupsOf(t, e, sn)
	if len(rollups) == 0 {
		t.Fatal("no rollups for a hitted net")
	}
	for _, ru := range rollups {
		if len(ru.sp.rows) < len(rows) {
			t.Errorf("rollup %s smaller than DS': %d < %d", ru.dim, len(ru.sp.rows), len(rows))
		}
		inRU := map[int]bool{}
		for _, r := range ru.sp.rows {
			inRU[r] = true
		}
		for r := range inRows {
			if !inRU[r] {
				t.Fatalf("rollup %s is not a superset of DS'", ru.dim)
			}
		}
		if ru.agg <= 0 {
			t.Errorf("rollup %s aggregate %g", ru.dim, ru.agg)
		}
	}
}

// The Columbus hit is at the City level, whose hierarchy parent is State:
// the roll-up along the Store dimension must widen Columbus to all Ohio
// stores; the LCD hit at GroupName level widens to its LineName parent.
func TestRollupLevels(t *testing.T) {
	e, sn, _ := exploreColumbusLCD(t, Surprise)
	rollups := rollupsOf(t, e, sn)
	dims := map[string]bool{}
	for _, ru := range rollups {
		dims[ru.dim] = true
	}
	if !dims["Store"] || !dims["Product"] {
		t.Errorf("rollup dims = %v, want Store and Product", dims)
	}
}
