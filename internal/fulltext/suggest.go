package fulltext

import "sort"

// Suggest returns indexed terms within edit distance 1 or 2 of the query
// word (after normalization), ordered by (distance, document frequency
// desc, term). The KDAP engine surfaces these as "did you mean"
// corrections when a keyword matches nothing even with prefix expansion —
// rounding out §3's approximate-search requirement beyond stemming and
// partial matching.
func (ix *Index) Suggest(word string, max int) []string {
	if max <= 0 {
		return nil
	}
	q := Normalize(word)
	if q == "" {
		return nil
	}
	type cand struct {
		term string
		dist int
		df   int
	}
	var cands []cand
	for term, ti := range ix.terms {
		if term == q {
			continue
		}
		// Cheap length gate before the DP.
		dl := len(term) - len(q)
		if dl < -2 || dl > 2 {
			continue
		}
		if d := boundedEditDistance(q, term, 2); d <= 2 {
			cands = append(cands, cand{term: term, dist: d, df: len(ti.postings)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		if cands[i].df != cands[j].df {
			return cands[i].df > cands[j].df
		}
		return cands[i].term < cands[j].term
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = ix.surfaceForm(c.term)
	}
	return out
}

// surfaceForm maps an index term (a stem) back to a word a user would
// recognize, by scanning the first document containing the term for the
// raw word that normalizes to it.
func (ix *Index) surfaceForm(term string) string {
	ti := ix.terms[term]
	if ti == nil || len(ti.postings) == 0 {
		return term
	}
	text := ix.docs[ti.postings[0].doc].Value.Text()
	for _, w := range RawWords(text) {
		if Normalize(w) == term {
			return w
		}
	}
	return term
}

// boundedEditDistance computes the Levenshtein distance between a and b
// over their runes, capped at bound+1: once the distance provably
// exceeds bound, bound+1 is returned.
func boundedEditDistance(a, b string, bound int) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la-lb > bound || lb-la > bound {
		return bound + 1
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if v := prev[j] + 1; v < m {
				m = v
			}
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return bound + 1
		}
		prev, cur = cur, prev
	}
	return min(prev[lb], bound+1)
}
