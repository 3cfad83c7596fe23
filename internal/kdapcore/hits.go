// Package kdapcore implements Keyword-Driven Analytical Processing — the
// paper's primary contribution. The engine operates in the two phases of
// §3: differentiate (keyword query → ranked candidate star nets, §4) and
// explore (chosen sub-dataspace → dynamic facets, §5).
package kdapcore

import (
	"context"
	"sort"
	"strings"

	"kdap/internal/fulltext"
	"kdap/internal/relation"
)

// Hit is one attribute instance matching a keyword: the triplet
// (table, attribute, value) of §4.2 plus its full-query relevance score
// Sim(h.val, q).
type Hit struct {
	Table string
	Attr  string
	Value relation.Value
	Score float64
	// RawScore is the original single-keyword similarity before any
	// phrase re-scoring (§4.3). The Figure 4 baseline method averages
	// these directly, since the baseline of Hristidis et al. has no
	// phrase-update step.
	RawScore float64
}

// HitGroup collects the hits of one or more keywords that fall in the same
// attribute domain (same table and attribute). After phrase merging a
// group may cover several keywords.
type HitGroup struct {
	Table string
	Attr  string
	Hits  []Hit
	// Keywords holds the zero-based indexes of the query keywords this
	// group covers (one for plain groups, several after phrase merge).
	Keywords []int
	// Phrase is the merged phrase text when the group was produced by the
	// §4.3 merge, empty otherwise.
	Phrase string
}

// Domain returns the attribute domain identifier "Table.Attr".
func (g *HitGroup) Domain() string { return g.Table + "." + g.Attr }

// Values returns the distinct attribute values of the group's hits.
func (g *HitGroup) Values() []relation.Value {
	out := make([]relation.Value, len(g.Hits))
	for i, h := range g.Hits {
		out[i] = h.Value
	}
	return out
}

// BestScore returns the highest hit score in the group.
func (g *HitGroup) BestScore() float64 {
	best := 0.0
	for _, h := range g.Hits {
		if h.Score > best {
			best = h.Score
		}
	}
	return best
}

// SumScore returns the sum of the group's hit scores.
func (g *HitGroup) SumScore() float64 {
	var s float64
	for _, h := range g.Hits {
		s += h.Score
	}
	return s
}

// hitSet is the hit set H_i of one keyword: its hits organized into hit
// groups by attribute domain.
type hitSet struct {
	Keyword string
	Index   int // zero-based position of the keyword in the query
	Groups  []*HitGroup
}

// hitLimits bound the differentiate phase so that very ambiguous keywords
// stay interactive, per §4.1's responsiveness concern. Groups and hits are
// ranked before truncation, so only the weakest interpretations are cut.
type hitLimits struct {
	maxHitsPerKeyword  int
	maxGroupsPerHitSet int
	maxHitsPerGroup    int
}

func defaultHitLimits() hitLimits {
	return hitLimits{maxHitsPerKeyword: 200, maxGroupsPerHitSet: 12, maxHitsPerGroup: 64}
}

// buildHitSets probes the full-text index once per keyword; each hit
// carries the similarity between the keyword and the attribute instance
// (§4.3 notes that "the original score only reflects the similarity
// between the single keyword and the textual attribute instance" — phrase
// merging later re-scores merged groups against the whole phrase). Hits
// within a hit set are grouped by attribute domain.
func buildHitSets(ctx context.Context, ix *fulltext.Index, keywords []string, lim hitLimits, sim fulltext.Similarity) ([]*hitSet, error) {
	sets := make([]*hitSet, 0, len(keywords))
	for i, kw := range keywords {
		hits, err := ix.SearchCtx(ctx, kw, fulltext.Options{Prefix: true, Limit: lim.maxHitsPerKeyword, Similarity: sim})
		if err != nil {
			return nil, err
		}
		groups := make(map[string]*HitGroup)
		var order []string
		for _, fh := range hits {
			score := fh.Score
			key := fh.Doc.Table + "." + fh.Doc.Attr
			g := groups[key]
			if g == nil {
				g = &HitGroup{Table: fh.Doc.Table, Attr: fh.Doc.Attr, Keywords: []int{i}}
				groups[key] = g
				order = append(order, key)
			}
			if len(g.Hits) < lim.maxHitsPerGroup {
				g.Hits = append(g.Hits, Hit{Table: fh.Doc.Table, Attr: fh.Doc.Attr,
					Value: fh.Doc.Value, Score: score, RawScore: score})
			}
		}
		hs := &hitSet{Keyword: kw, Index: i}
		for _, key := range order {
			hs.Groups = append(hs.Groups, groups[key])
		}
		// Rank groups by best hit score (then domain for determinism) and
		// truncate to the strongest interpretations.
		sort.SliceStable(hs.Groups, func(a, b int) bool {
			sa, sb := hs.Groups[a].BestScore(), hs.Groups[b].BestScore()
			if sa != sb {
				return sa > sb
			}
			return hs.Groups[a].Domain() < hs.Groups[b].Domain()
		})
		if len(hs.Groups) > lim.maxGroupsPerHitSet {
			hs.Groups = hs.Groups[:lim.maxGroupsPerHitSet]
		}
		sets = append(sets, hs)
	}
	return sets, nil
}

// mergePhrases implements §4.3: whenever hit groups from different hit
// sets share the same attribute domain AND overlap in at least one hit,
// the keywords likely form a phrase ("San Jose"). The merged group is
// their intersection, covering both keywords, re-scored by consulting the
// text engine with the phrase query. Merging generalizes to chains of
// more than two keywords by repeated pairwise merging.
//
// Merged groups are appended as additional candidates; the originals stay
// so that non-phrase interpretations remain available (the paper keeps
// "San Antonio" as a candidate, just ranked lower).
func mergePhrases(ctx context.Context, ix *fulltext.Index, sets []*hitSet, keywords []string, sim fulltext.Similarity) ([]*HitGroup, error) {
	var merged []*HitGroup

	// Start from each group, try to extend with groups of later keywords.
	var extend func(cur *HitGroup) error
	extend = func(cur *HitGroup) error {
		last := cur.Keywords[len(cur.Keywords)-1]
		for _, hs := range sets {
			if hs.Index <= last {
				continue
			}
			for _, g := range hs.Groups {
				if g.Table != cur.Table || g.Attr != cur.Attr {
					continue
				}
				inter := intersectHits(cur.Hits, g.Hits)
				if len(inter) == 0 {
					continue
				}
				phraseWords := make([]string, 0, len(cur.Keywords)+1)
				for _, ki := range cur.Keywords {
					phraseWords = append(phraseWords, keywords[ki])
				}
				phraseWords = append(phraseWords, keywords[hs.Index])
				phrase := strings.Join(phraseWords, " ")
				rescored, err := rescorePhrase(ctx, ix, cur.Table, cur.Attr, inter, phrase, sim)
				if err != nil {
					return err
				}
				if len(rescored) == 0 {
					continue
				}
				m := &HitGroup{
					Table:    cur.Table,
					Attr:     cur.Attr,
					Hits:     rescored,
					Keywords: append(append([]int(nil), cur.Keywords...), hs.Index),
					Phrase:   phrase,
				}
				merged = append(merged, m)
				if err := extend(m); err != nil {
					return err
				}
			}
			// Only extend into the immediately next keyword position:
			// phrases are contiguous in the query.
			break
		}
		return nil
	}
	for _, hs := range sets {
		for _, g := range hs.Groups {
			if err := extend(g); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// intersectHits returns the hits present (by value) in both slices; the
// surviving hit's raw score averages both sides' single-keyword scores.
func intersectHits(a, b []Hit) []Hit {
	inB := make(map[relation.Value]float64, len(b))
	for _, h := range b {
		inB[h.Value] = h.RawScore
	}
	var out []Hit
	for _, h := range a {
		if raw, ok := inB[h.Value]; ok {
			merged := h
			merged.RawScore = (h.RawScore + raw) / 2
			out = append(out, merged)
		}
	}
	return out
}

// rescorePhrase re-queries the text engine with the merged phrase (§4.3:
// "the system also needs to update the score by consulting the full-text
// engine again"). Hits containing the exact phrase get phrase scores;
// hits containing all the words in order within a small window ("Tires
// Tubes" inside "Tires and Tubes") fall back to the all-words score —
// the paper's merge condition is domain + non-empty intersection, not
// strict adjacency, but an unbounded window would merge unrelated words
// from long descriptions.
func rescorePhrase(ctx context.Context, ix *fulltext.Index, table, attr string, hits []Hit, phrase string, sim fulltext.Similarity) ([]Hit, error) {
	phraseHits, err := ix.SearchPhraseCtx(ctx, phrase, fulltext.Options{Similarity: sim})
	if err != nil {
		return nil, err
	}
	phraseScores := make(map[relation.Value]float64)
	for _, ph := range phraseHits {
		if ph.Doc.Table == table && ph.Doc.Attr == attr {
			phraseScores[ph.Doc.Value] = ph.Score
		}
	}
	var wordScores map[relation.Value]float64
	allWords := func(v relation.Value) (float64, bool, error) {
		if wordScores == nil {
			wordScores = make(map[relation.Value]float64)
			terms := fulltext.Terms(phrase)
			wordHits, err := ix.SearchCtx(ctx, phrase, fulltext.Options{Similarity: sim})
			if err != nil {
				return 0, false, err
			}
			for _, wh := range wordHits {
				if wh.Doc.Table != table || wh.Doc.Attr != attr {
					continue
				}
				if containsTermsNear(wh.Doc.Value.Text(), terms, phraseSlop) {
					wordScores[wh.Doc.Value] = wh.Score
				}
			}
		}
		s, ok := wordScores[v]
		return s, ok, nil
	}
	var out []Hit
	for _, h := range hits {
		if s, ok := phraseScores[h.Value]; ok {
			out = append(out, Hit{Table: h.Table, Attr: h.Attr, Value: h.Value, Score: s, RawScore: h.RawScore})
		} else if s, ok, err := allWords(h.Value); err != nil {
			return nil, err
		} else if ok {
			out = append(out, Hit{Table: h.Table, Attr: h.Attr, Value: h.Value, Score: s, RawScore: h.RawScore})
		}
	}
	return out, nil
}

// phraseSlop is the largest gap allowed between consecutive phrase words
// in the near-phrase merge fallback (Lucene's phrase slop, fixed small).
const phraseSlop = 1

// containsTermsNear reports whether the text contains every term in
// order, with at most slop intervening words between consecutive terms.
func containsTermsNear(text string, terms []string, slop int) bool {
	if len(terms) == 0 {
		return true
	}
	toks := fulltext.Tokenize(text)
	// Try a greedy chain from every occurrence of the first term: each
	// later term must occur after the previous match within slop+1
	// positions.
	for start, tok := range toks {
		if tok.Term != terms[0] {
			continue
		}
		prevPos := tok.Pos
		i := start + 1
		ok := true
		for _, term := range terms[1:] {
			found := false
			for ; i < len(toks); i++ {
				if toks[i].Pos-prevPos > slop+1 {
					break // everything further is out of reach too
				}
				if toks[i].Term == term {
					prevPos = toks[i].Pos
					i++
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
