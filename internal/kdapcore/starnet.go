package kdapcore

import (
	"fmt"
	"sort"
	"strings"

	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// BoundGroup is a hit group bound to one concrete join path to the fact
// table. The pair fixes the semantic interpretation of the keywords the
// group covers (e.g. Loc/City/"Columbus" via the Store path vs. the Buyer
// path).
type BoundGroup struct {
	Group *HitGroup
	Path  schemagraph.JoinPath
}

// Alias returns the table expression name for this group in the star net:
// the bare table name, or Table@Role when the same table is reachable
// through several roles (the paper's table-alias requirement, §4.2).
func (b BoundGroup) Alias() string {
	if b.Path.Role == "" || b.Path.Role == b.Path.Dim {
		return b.Group.Table
	}
	return b.Group.Table + "@" + b.Path.Role
}

// StarNet is one candidate interpretation of the whole keyword query: a
// set of bound hit groups whose join paths all meet at the fact table
// (§4.2). The sub-dataspace DS' of the net is the intersection of its
// groups' fact-row slices.
type StarNet struct {
	Query  string
	Groups []BoundGroup
	// Filters are the query's numeric predicates (the §7 measure-
	// attribute extension); they further slice the sub-dataspace after
	// the hit-group semijoin.
	Filters []NumericFilter
	// Score is the ranking score assigned by the method used during
	// differentiation.
	Score float64
}

// pathLen is the total number of join hops in the net — the size of its
// join network.
func (sn *StarNet) pathLen() int {
	n := 0
	for _, bg := range sn.Groups {
		n += len(bg.Path.Hops)
	}
	return n
}

// Dimensions returns the distinct dimension names hit by the net — the
// paper's "hitted dimensions" D_hit (§5.2.1).
func (sn *StarNet) Dimensions() []string {
	seen := map[string]bool{}
	var out []string
	for _, bg := range sn.Groups {
		if bg.Path.Dim == "" || seen[bg.Path.Dim] {
			continue
		}
		seen[bg.Path.Dim] = true
		out = append(out, bg.Path.Dim)
	}
	sort.Strings(out)
	return out
}

// Constraints converts the net's bound groups into executor constraints.
// Groups from *different* attribute domains intersect at the fact table —
// the paper's "merge tables from the same dimension" semantics (the
// "Home Electronics, VCR" example slices products satisfying both).
// Groups from the *same* domain and join path are side-by-side slices
// (§4.3's "Software" + "Electronics" example) and union into one IN
// predicate: a fact cannot belong to two subcategories at once, so
// intersecting them would always be empty.
func (sn *StarNet) Constraints() []olap.Constraint {
	type key struct {
		table, attr, path string
	}
	index := make(map[key]int)
	out := make([]olap.Constraint, 0, len(sn.Groups))
	for _, bg := range sn.Groups {
		k := key{bg.Group.Table, bg.Group.Attr, bg.Path.Signature()}
		if i, ok := index[k]; ok {
			out[i].Values = unionValues(out[i].Values, bg.Group.Values())
			continue
		}
		index[k] = len(out)
		out = append(out, olap.Constraint{
			Table:  bg.Group.Table,
			Attr:   bg.Group.Attr,
			Values: bg.Group.Values(),
			Path:   bg.Path,
		})
	}
	return out
}

// unionValues appends the values of b not already in a.
func unionValues(a, b []relation.Value) []relation.Value {
	seen := make(map[relation.Value]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			a = append(a, v)
		}
	}
	return a
}

// Signature canonically identifies the interpretation: the sorted set of
// (domain, role, sorted values) triples. Ground-truth checks in the
// Figure 4 reproduction match on it.
func (sn *StarNet) Signature() string {
	parts := make([]string, 0, len(sn.Groups))
	for _, bg := range sn.Groups {
		vals := make([]string, 0, len(bg.Group.Hits))
		for _, h := range bg.Group.Hits {
			vals = append(vals, h.Value.Text())
		}
		sort.Strings(vals)
		parts = append(parts, fmt.Sprintf("%s[%s]{%s}", bg.Group.Domain(), bg.Path.Role, strings.Join(vals, "|")))
	}
	for _, nf := range sn.Filters {
		parts = append(parts, nf.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, " & ")
}

// DomainSignature is Signature without the concrete values: the sorted
// set of domain[role] pairs. The workload ground truth uses it.
func (sn *StarNet) DomainSignature() string {
	parts := make([]string, 0, len(sn.Groups))
	for _, bg := range sn.Groups {
		parts = append(parts, fmt.Sprintf("%s[%s]", bg.Group.Domain(), bg.Path.Role))
	}
	sort.Strings(parts)
	return strings.Join(parts, " & ")
}

// String renders the net the way the paper's Table 1 does: one cell per
// hit group, "Table/Attr/{v1 OR v2}" plus the score.
func (sn *StarNet) String() string {
	parts := make([]string, 0, len(sn.Groups))
	for _, bg := range sn.Groups {
		vals := make([]string, 0, len(bg.Group.Hits))
		for _, h := range bg.Group.Hits {
			vals = append(vals, h.Value.Text())
		}
		parts = append(parts, fmt.Sprintf("%s/%s/{%s}", bg.Alias(), bg.Group.Attr, strings.Join(vals, " OR ")))
	}
	return fmt.Sprintf("%s  %.6f", strings.Join(parts, "  "), sn.Score)
}

// starSeed is a choice of hit groups covering every keyword exactly once
// (§4.2's star seed SS). Merged phrase groups cover several keywords.
type starSeed []*HitGroup

// enumerateSeeds produces every exact cover of the keywords by hit groups
// (including merged phrase groups). Keywords whose hit set is empty are
// skipped — they constrain nothing, which mirrors how a search engine
// ignores unmatched terms rather than returning nothing.
func enumerateSeeds(sets []*hitSet, merged []*HitGroup, maxSeeds int) []starSeed {
	n := len(sets)
	// Groups by their first covered keyword.
	byFirst := make([][]*HitGroup, n)
	for _, hs := range sets {
		for _, g := range hs.Groups {
			byFirst[hs.Index] = append(byFirst[hs.Index], g)
		}
	}
	for _, g := range merged {
		byFirst[g.Keywords[0]] = append(byFirst[g.Keywords[0]], g)
	}
	// Under the seed cap, enumerate the most promising choices first:
	// wider keyword coverage (phrase merges), then higher best-hit score.
	for i := range byFirst {
		gs := byFirst[i]
		sort.SliceStable(gs, func(a, b int) bool {
			if len(gs[a].Keywords) != len(gs[b].Keywords) {
				return len(gs[a].Keywords) > len(gs[b].Keywords)
			}
			return gs[a].BestScore() > gs[b].BestScore()
		})
	}
	var out []starSeed
	var cur starSeed
	covered := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if len(out) >= maxSeeds {
			return
		}
		for i < n && (covered[i] || len(byFirst[i]) == 0) {
			if !covered[i] {
				covered[i] = true // empty hit set: skip keyword
				defer func(k int) { covered[k] = false }(i)
			}
			i++
		}
		if i == n {
			if len(cur) > 0 {
				out = append(out, append(starSeed(nil), cur...))
			}
			return
		}
		for _, g := range byFirst[i] {
			ok := true
			for _, ki := range g.Keywords {
				if covered[ki] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, ki := range g.Keywords {
				covered[ki] = true
			}
			cur = append(cur, g)
			rec(i + 1)
			cur = cur[:len(cur)-1]
			for _, ki := range g.Keywords {
				covered[ki] = false
			}
		}
	}
	rec(0)
	return out
}

// netLimits bound star-net enumeration.
type netLimits struct {
	maxSeeds int
	maxNets  int
}

func defaultNetLimits() netLimits { return netLimits{maxSeeds: 512, maxNets: 2048} }

// generateStarNets is Algorithm 1: for every star seed, bind each hit
// group to each of its join paths to the fact table and emit the cross
// product. Hit groups whose table cannot reach the fact table are
// invalid interpretations and prune the whole seed, enforcing the §4.2
// requirement that every star net contain the fact table.
func generateStarNets(g *schemagraph.Graph, query string, seeds []starSeed, lim netLimits) []*StarNet {
	pathCache := make(map[string][]schemagraph.JoinPath)
	pathsOf := func(table string) []schemagraph.JoinPath {
		if p, ok := pathCache[table]; ok {
			return p
		}
		p := g.JoinPaths(table)
		pathCache[table] = p
		return p
	}
	var nets []*StarNet
	for _, seed := range seeds {
		if len(nets) >= lim.maxNets {
			break
		}
		choices := make([][]schemagraph.JoinPath, len(seed))
		valid := true
		for i, hg := range seed {
			ps := pathsOf(hg.Table)
			if len(ps) == 0 {
				valid = false
				break
			}
			choices[i] = ps
		}
		if !valid {
			continue
		}
		// Cross product of path choices.
		idx := make([]int, len(seed))
		for {
			bgs := make([]BoundGroup, len(seed))
			for i, hg := range seed {
				bgs[i] = BoundGroup{Group: hg, Path: choices[i][idx[i]]}
			}
			nets = append(nets, &StarNet{Query: query, Groups: bgs})
			if len(nets) >= lim.maxNets {
				break
			}
			// Increment the multi-index.
			k := len(idx) - 1
			for k >= 0 {
				idx[k]++
				if idx[k] < len(choices[k]) {
					break
				}
				idx[k] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
	}
	return nets
}
