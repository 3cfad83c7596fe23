package kdapcore

import (
	"strings"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	return NewSession(ebizEngine(), DefaultExploreOptions())
}

func TestSessionFullLoop(t *testing.T) {
	s := newSession(t)
	if s.Current() != nil || s.Facets() != nil || s.Depth() != 0 {
		t.Fatal("fresh session not empty")
	}
	nets, err := s.Query("Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("query: %v", err)
	}
	if len(s.Interpretations()) != len(nets) {
		t.Error("interpretations not stored")
	}
	f, err := s.Pick(1)
	if err != nil || f == nil || s.Facets() != f {
		t.Fatalf("pick: %v", err)
	}
	before := f.SubspaceSize

	// Drill into the first categorical instance.
	var drilled *Facets
	for _, a := range s.FlatAttrs() {
		if a.Numeric || len(a.Instances) == 0 || a.Instances[0].Value.IsNull() {
			continue
		}
		drilled, err = s.Drill(a.Attr, a.Role, a.Instances[0].Value)
		if err != nil {
			t.Fatalf("drill: %v", err)
		}
		break
	}
	if drilled == nil {
		t.Fatal("nothing drilled")
	}
	if s.Depth() != 1 || drilled.SubspaceSize > before {
		t.Errorf("depth %d, sizes %d -> %d", s.Depth(), before, drilled.SubspaceSize)
	}
	back, err := s.Back()
	if err != nil || back.SubspaceSize != before || s.Depth() != 0 {
		t.Errorf("back: %v size %d", err, back.SubspaceSize)
	}
	if _, err := s.Back(); err == nil {
		t.Error("back at root accepted")
	}
}

func TestSessionModeSwitchRebuildsFacets(t *testing.T) {
	s := newSession(t)
	if err := s.SetMode(Bellwether); err != nil {
		t.Fatal(err) // no facets yet: just records the mode
	}
	if _, err := s.Query("Projectors"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Pick(1); err != nil {
		t.Fatal(err)
	}
	f1 := s.Facets()
	if err := s.SetMode(Surprise); err != nil {
		t.Fatal(err)
	}
	if s.Facets() == f1 {
		t.Error("mode switch did not rebuild facets")
	}
}

func TestSessionErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Pick(1); err == nil {
		t.Error("pick before query accepted")
	}
	if _, err := s.Query("   "); err == nil {
		t.Error("blank query accepted")
	}
	if _, err := s.Drill(schemagraph.AttrRef{Table: "LOC", Attr: "City"}, "Store", relation.String("Columbus")); err == nil {
		t.Error("drill before pick accepted")
	}
	nets, _ := s.Query("Projectors")
	if len(nets) == 0 {
		t.Fatal("no nets")
	}
	if _, err := s.Pick(999); err == nil {
		t.Error("out-of-range pick accepted")
	}
	if _, err := s.Pick(1); err != nil {
		t.Fatal(err)
	}
	// A drill into a nonexistent value empties the subspace and must
	// leave the session usable at the previous state.
	before := s.Facets().SubspaceSize
	if _, err := s.Drill(schemagraph.AttrRef{Table: "LOC", Attr: "City"}, "Store", relation.String("Atlantis")); err == nil {
		t.Error("empty drill accepted")
	}
	if s.Depth() != 0 || s.Facets() == nil || s.Facets().SubspaceSize != before {
		t.Error("failed drill corrupted the session")
	}
}

// With tracing on, every query and explore-refreshing navigation step
// publishes a span tree through LastTrace; with it off (the default),
// nothing is recorded.
func TestSessionTracing(t *testing.T) {
	s := newSession(t)
	if s.Tracing() || s.LastTrace() != nil {
		t.Fatal("tracing on by default")
	}
	if _, err := s.Query("Columbus LCD"); err != nil {
		t.Fatal(err)
	}
	if s.LastTrace() != nil {
		t.Error("untraced query recorded a trace")
	}

	s.SetTracing(true)
	if _, err := s.Query("Columbus LCD"); err != nil {
		t.Fatal(err)
	}
	qt := s.LastTrace()
	if qt == nil || qt.Root().Name() != "query" {
		t.Fatalf("query trace: %+v", qt)
	}
	if st := qt.Stages(); st["differentiate"] == 0 || st["hit_probe"] == 0 {
		t.Errorf("query stages missing: %v", qt.StageNames())
	}

	if _, err := s.Pick(1); err != nil {
		t.Fatal(err)
	}
	et := s.LastTrace()
	if et == qt || et.Root().Name() != "explore" {
		t.Fatalf("pick did not publish an explore trace")
	}
	if st := et.Stages(); st["subspace_semijoin"] == 0 || st["facet_score"] == 0 {
		t.Errorf("explore stages missing: %v", et.StageNames())
	}
}

// The REPL's `profile` command renders LastProfile; the cache outcome
// the engine records must reach it, for the differentiate and the
// explore a session runs, whether the engine caches answers or not.
func TestSessionProfileCarriesCacheOutcome(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cache       int
		query, pick string
	}{
		{"uncached", 0, cacheBypass, cacheBypass},
		{"cached", 16, cacheMiss, cacheMiss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := ebizEngine()
			e.SetAnswerCache(tc.cache, 0)
			s := NewSession(e, DefaultExploreOptions())
			if _, err := s.Query("Columbus LCD"); err != nil {
				t.Fatal(err)
			}
			if got := s.LastProfile().Cache; got != tc.query {
				t.Errorf("query profile cache = %q, want %q", got, tc.query)
			}
			if _, err := s.Pick(1); err != nil {
				t.Fatal(err)
			}
			if got := s.LastProfile().Cache; got != tc.pick {
				t.Errorf("pick profile cache = %q, want %q", got, tc.pick)
			}
			if !strings.Contains(s.LastProfile().Render(), "cache="+tc.pick) {
				t.Errorf("rendered profile lacks the outcome:\n%s", s.LastProfile().Render())
			}
		})
	}
}
