package fulltext

import (
	"testing"
	"testing/quick"

	"kdap/internal/relation"
)

func TestSuggestTypos(t *testing.T) {
	ix := NewIndex()
	ix.Add("Loc", "City", relation.String("Columbus"))
	ix.Add("Loc", "City", relation.String("Seattle"))
	ix.Add("P", "Name", relation.String("Mountain Bikes"))

	// Matching happens on index stems, but suggestions surface the
	// original word form users recognize.
	cases := map[string]string{
		"Colombus": "Columbus", // transposed vowel
		"Seatle":   "Seattle",  // dropped letter
		"Mountian": "Mountain", // transposition = 2 edits
	}
	for typo, want := range cases {
		got := ix.Suggest(typo, 3)
		found := false
		for _, s := range got {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Suggest(%q) = %v, want %q among them", typo, got, want)
		}
	}
}

func TestSuggestExcludesExactAndFar(t *testing.T) {
	ix := NewIndex()
	ix.Add("T", "A", relation.String("columbus"))
	ix.Add("T", "A", relation.String("zzzzzzzz"))
	got := ix.Suggest("columbus", 5)
	for _, s := range got {
		if s == "columbu" { // stem of columbus is "columbu"? ensure no self
			t.Errorf("self-suggestion: %v", got)
		}
	}
	if sugg := ix.Suggest("qqq", 5); len(sugg) != 0 {
		t.Errorf("far word suggested: %v", sugg)
	}
	if ix.Suggest("x", 0) != nil || ix.Suggest("", 3) != nil {
		t.Error("degenerate inputs should return nil")
	}
}

func TestSuggestOrdering(t *testing.T) {
	ix := NewIndex()
	// "bike" appears in many docs; "bake" in one. Query "bikes" stems to
	// "bike" (exact) — use "bika": distance 1 to both bike and bake.
	for i := 0; i < 5; i++ {
		ix.Add("T", "A", relation.String("bike model "+string(rune('a'+i))))
	}
	ix.Add("T", "A", relation.String("bake"))
	got := ix.Suggest("bika", 2)
	if len(got) == 0 || got[0] != "bike" {
		t.Errorf("Suggest(bika) = %v, want bike first (higher df)", got)
	}
}

func TestBoundedEditDistance(t *testing.T) {
	cases := []struct {
		a, b  string
		bound int
		want  int
	}{
		{"", "", 2, 0},
		{"a", "", 2, 1},
		{"abc", "abc", 2, 0},
		{"abc", "abd", 2, 1},
		{"abc", "acb", 2, 2},
		{"kitten", "sitting", 2, 3}, // exceeds bound → bound+1
		{"abcdefg", "xbcdefg", 2, 1},
		// One rune each, of different UTF-8 lengths: one substitution.
		{"ὀ", "\U001000b2", 2, 1},
		{"\U001000b2", "ὀ", 2, 1},
		// Found past the bound only on the last row: capped all the same.
		{"ab", "cdef", 2, 3},
	}
	for _, c := range cases {
		got := boundedEditDistance(c.a, c.b, c.bound)
		if got != c.want {
			t.Errorf("dist(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: the bounded distance is symmetric and zero iff equal (within
// the bound regime).
func TestEditDistanceProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 12 || len(b) > 12 {
			return true
		}
		d1 := boundedEditDistance(a, b, 2)
		d2 := boundedEditDistance(b, a, 2)
		if d1 != d2 {
			return false
		}
		if a == b && d1 != 0 {
			return false
		}
		if a != b && d1 == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
