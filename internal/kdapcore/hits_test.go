package kdapcore

import (
	"context"
	"reflect"
	"testing"

	"kdap/internal/fulltext"
	"kdap/internal/relation"
)

func cityIndex() *fulltext.Index {
	ix := fulltext.NewIndex()
	ix.Add("Loc", "City", relation.String("San Jose"))
	ix.Add("Loc", "City", relation.String("San Antonio"))
	ix.Add("Loc", "City", relation.String("San Francisco"))
	ix.Add("Cust", "FirstName", relation.String("Jose"))
	ix.Add("Loc", "State", relation.String("New South Wales"))
	ix.Add("Prod", "Name", relation.String("Software"))
	ix.Add("Prod", "Name", relation.String("Electronics"))
	return ix
}

func TestBuildHitSetsGroupsByDomain(t *testing.T) {
	ix := cityIndex()
	sets, _ := buildHitSets(context.Background(), ix, []string{"san", "jose"}, defaultHitLimits(), fulltext.ClassicTFIDF)
	if len(sets) != 2 {
		t.Fatalf("sets = %d", len(sets))
	}
	san := sets[0]
	if san.Keyword != "san" || san.Index != 0 {
		t.Errorf("first set = %+v", san)
	}
	if len(san.Groups) != 1 || san.Groups[0].Domain() != "Loc.City" {
		t.Fatalf("san groups = %+v", san.Groups)
	}
	if len(san.Groups[0].Hits) != 3 {
		t.Errorf("san city hits = %d", len(san.Groups[0].Hits))
	}
	jose := sets[1]
	domains := map[string]bool{}
	for _, g := range jose.Groups {
		domains[g.Domain()] = true
	}
	if !domains["Loc.City"] || !domains["Cust.FirstName"] {
		t.Errorf("jose domains = %v", domains)
	}
	// Every hit carries matching Raw and live scores initially.
	for _, g := range jose.Groups {
		for _, h := range g.Hits {
			if h.Score != h.RawScore || h.Score <= 0 {
				t.Errorf("hit scores: %+v", h)
			}
		}
	}
}

func TestBuildHitSetsLimits(t *testing.T) {
	ix := fulltext.NewIndex()
	for i := 0; i < 30; i++ {
		ix.Add("T", "A", relation.String("word variant "+string(rune('a'+i))))
		ix.Add("T2", "B", relation.String("word other "+string(rune('a'+i))))
	}
	lim := hitLimits{maxHitsPerKeyword: 100, maxGroupsPerHitSet: 1, maxHitsPerGroup: 5}
	sets, _ := buildHitSets(context.Background(), ix, []string{"word"}, lim, fulltext.ClassicTFIDF)
	if len(sets[0].Groups) != 1 {
		t.Errorf("group cap not applied: %d", len(sets[0].Groups))
	}
	if len(sets[0].Groups[0].Hits) != 5 {
		t.Errorf("hit cap not applied: %d", len(sets[0].Groups[0].Hits))
	}
}

func TestMergePhrasesSanJose(t *testing.T) {
	ix := cityIndex()
	kws := []string{"San", "Jose"}
	sets, _ := buildHitSets(context.Background(), ix, kws, defaultHitLimits(), fulltext.ClassicTFIDF)
	merged, _ := mergePhrases(context.Background(), ix, sets, kws, fulltext.ClassicTFIDF)
	if len(merged) != 1 {
		t.Fatalf("merged groups = %d", len(merged))
	}
	m := merged[0]
	if m.Domain() != "Loc.City" || m.Phrase != "San Jose" {
		t.Errorf("merged = %+v", m)
	}
	if !reflect.DeepEqual(m.Keywords, []int{0, 1}) {
		t.Errorf("keywords = %v", m.Keywords)
	}
	if len(m.Hits) != 1 || m.Hits[0].Value.Text() != "San Jose" {
		t.Errorf("merged hits = %v", m.Hits)
	}
	// The phrase re-score must differ from the single-keyword raw score.
	if m.Hits[0].Score == m.Hits[0].RawScore {
		t.Error("phrase rescoring did not update the score")
	}
}

func TestMergePhrasesThreeWay(t *testing.T) {
	ix := cityIndex()
	kws := []string{"New", "South", "Wales"}
	sets, _ := buildHitSets(context.Background(), ix, kws, defaultHitLimits(), fulltext.ClassicTFIDF)
	merged, _ := mergePhrases(context.Background(), ix, sets, kws, fulltext.ClassicTFIDF)
	var full *HitGroup
	for _, m := range merged {
		if len(m.Keywords) == 3 {
			full = m
		}
	}
	if full == nil {
		t.Fatalf("no 3-way merge; merged = %d groups", len(merged))
	}
	if full.Phrase != "New South Wales" || full.Hits[0].Value.Text() != "New South Wales" {
		t.Errorf("full merge = %+v", full)
	}
}

// §4.3's counter-example: "Software Electronics" share the domain but
// have no overlapping hit, so they must NOT merge (the user wants two
// slices side by side).
func TestMergePhrasesRequiresOverlap(t *testing.T) {
	ix := cityIndex()
	kws := []string{"Software", "Electronics"}
	sets, _ := buildHitSets(context.Background(), ix, kws, defaultHitLimits(), fulltext.ClassicTFIDF)
	if merged, _ := mergePhrases(context.Background(), ix, sets, kws, fulltext.ClassicTFIDF); len(merged) != 0 {
		t.Errorf("non-overlapping groups merged: %+v", merged[0])
	}
}

// Non-adjacent keywords must not merge as a phrase.
func TestMergePhrasesOnlyAdjacentKeywords(t *testing.T) {
	ix := cityIndex()
	kws := []string{"San", "Wales", "Jose"} // San..Jose not adjacent
	sets, _ := buildHitSets(context.Background(), ix, kws, defaultHitLimits(), fulltext.ClassicTFIDF)
	merged, _ := mergePhrases(context.Background(), ix, sets, kws, fulltext.ClassicTFIDF)
	for _, m := range merged {
		if reflect.DeepEqual(m.Keywords, []int{0, 2}) {
			t.Errorf("non-contiguous keywords merged: %+v", m)
		}
	}
}

func TestContainsTermsNear(t *testing.T) {
	if !containsTermsNear("Tires and Tubes", []string{"tire", "tube"}, 1) {
		t.Error("one-word gap rejected")
	}
	if containsTermsNear("Tires and Tubes", []string{"tire", "wheel"}, 1) {
		t.Error("missing term accepted")
	}
	if containsTermsNear("Tubes and Tires", []string{"tire", "tube"}, 1) {
		t.Error("out-of-order terms accepted")
	}
	if containsTermsNear("bike stand for working on your bike", []string{"bike", "work"}, 1) {
		t.Error("two intervening words accepted at slop 1")
	}
	// A later start must be found when the first occurrence dead-ends.
	if !containsTermsNear("tire x x x x tire tube", []string{"tire", "tube"}, 1) {
		t.Error("restart at a later first-term occurrence missed")
	}
	if !containsTermsNear("anything", nil, 1) {
		t.Error("empty terms should be contained")
	}
}

func TestHitGroupAccessors(t *testing.T) {
	g := &HitGroup{Table: "T", Attr: "A", Hits: []Hit{
		{Value: relation.String("x"), Score: 0.5},
		{Value: relation.String("y"), Score: 1.5},
	}}
	if g.Domain() != "T.A" {
		t.Error("Domain")
	}
	if g.BestScore() != 1.5 || g.SumScore() != 2.0 {
		t.Error("scores")
	}
	vals := g.Values()
	if len(vals) != 2 || vals[0].Text() != "x" {
		t.Errorf("Values = %v", vals)
	}
	empty := &HitGroup{}
	if empty.BestScore() != 0 || empty.SumScore() != 0 {
		t.Error("empty group scores")
	}
}

func TestEnumerateSeedsExactCover(t *testing.T) {
	mk := func(dom string, kws ...int) *HitGroup {
		return &HitGroup{Table: dom, Attr: "A", Keywords: kws,
			Hits: []Hit{{Value: relation.String(dom), Score: 1}}}
	}
	sets := []*hitSet{
		{Keyword: "a", Index: 0, Groups: []*HitGroup{mk("A1", 0), mk("A2", 0)}},
		{Keyword: "b", Index: 1, Groups: []*HitGroup{mk("B1", 1)}},
		{Keyword: "c", Index: 2, Groups: []*HitGroup{mk("C1", 2)}},
	}
	merged := []*HitGroup{mk("AB", 0, 1)}
	seeds := enumerateSeeds(sets, merged, 100)
	// Covers: {A1,B1,C1}, {A2,B1,C1}, {AB,C1} = 3 exact covers.
	if len(seeds) != 3 {
		t.Fatalf("seeds = %d", len(seeds))
	}
	for _, s := range seeds {
		covered := map[int]int{}
		for _, g := range s {
			for _, k := range g.Keywords {
				covered[k]++
			}
		}
		for k := 0; k < 3; k++ {
			if covered[k] != 1 {
				t.Errorf("seed %v covers keyword %d %d times", s, k, covered[k])
			}
		}
	}
}

func TestEnumerateSeedsSkipsEmptyHitSets(t *testing.T) {
	mk := func(dom string, kws ...int) *HitGroup {
		return &HitGroup{Table: dom, Attr: "A", Keywords: kws}
	}
	sets := []*hitSet{
		{Keyword: "hit", Index: 0, Groups: []*HitGroup{mk("A", 0)}},
		{Keyword: "miss", Index: 1}, // no groups
		{Keyword: "hit2", Index: 2, Groups: []*HitGroup{mk("B", 2)}},
	}
	seeds := enumerateSeeds(sets, nil, 100)
	if len(seeds) != 1 || len(seeds[0]) != 2 {
		t.Fatalf("seeds = %+v", seeds)
	}
}

func TestEnumerateSeedsAllEmpty(t *testing.T) {
	sets := []*hitSet{{Keyword: "x", Index: 0}, {Keyword: "y", Index: 1}}
	if seeds := enumerateSeeds(sets, nil, 100); len(seeds) != 0 {
		t.Errorf("empty hit sets produced seeds: %v", seeds)
	}
}

func TestEnumerateSeedsCap(t *testing.T) {
	mk := func(i, k int) *HitGroup {
		return &HitGroup{Table: "T", Attr: string(rune('A' + i)), Keywords: []int{k}}
	}
	var sets []*hitSet
	for k := 0; k < 4; k++ {
		hs := &hitSet{Keyword: "k", Index: k}
		for i := 0; i < 6; i++ {
			hs.Groups = append(hs.Groups, mk(i, k))
		}
		sets = append(sets, hs)
	}
	// 6^4 = 1296 covers; cap at 10.
	if seeds := enumerateSeeds(sets, nil, 10); len(seeds) != 10 {
		t.Errorf("cap not applied: %d", len(seeds))
	}
}
