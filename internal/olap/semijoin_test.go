package olap

import (
	"math/rand"
	"reflect"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// forwardSemijoin is the test-only reference for a constraint's fact
// rows: the relational semijoin walked forward, hop by hop, from the
// matching rows of c.Table to the facts by comparing column values —
// no hash index, no fact→dimension mapping. Over the path's functional
// suffix (hops whose target holds the foreign key) a source row passes
// its key on only if it is the first row of its table holding it: the
// documented rule for duplicated keys.
func forwardSemijoin(db *relation.Database, c Constraint) []int {
	src := db.Table(c.Table)
	want := map[relation.Value]bool{}
	for _, v := range c.Values {
		want[v] = true
	}
	var cur []int
	for id := 0; id < src.Len(); id++ {
		if want[src.Value(id, c.Attr)] {
			cur = append(cur, id)
		}
	}
	functional := len(c.Path.Hops) - 1 // first hop of the functional suffix
	for ; functional > 0; functional-- {
		h, declared := c.Path.Hops[functional-1], false
		for _, fk := range db.Table(h.ToTable).Schema().ForeignKeys {
			declared = declared || fk.Column == h.ToCol && fk.RefTable == h.FromTable && fk.RefColumn == h.FromCol
		}
		if !declared {
			break
		}
	}
	for hi, h := range c.Path.Hops {
		from, to := db.Table(h.FromTable), db.Table(h.ToTable)
		owner := map[relation.Value]int{}
		for id := from.Len() - 1; id >= 0; id-- {
			owner[from.Value(id, h.FromCol)] = id
		}
		keys := map[relation.Value]bool{}
		for _, r := range cur {
			if k := from.Value(r, h.FromCol); !k.IsNull() && (hi < functional || owner[k] == r) {
				keys[k] = true
			}
		}
		cur = cur[:0:0]
		for id := 0; id < to.Len(); id++ {
			if keys[to.Value(id, h.ToCol)] {
				cur = append(cur, id)
			}
		}
	}
	return cur
}

// TestColdConstraintMatchesForwardSemijoin: the one semijoin into the
// facts — a scan of the fact→dimension mapping, from a cold executor —
// returns exactly the forward walk's rows, for random hit groups along
// every join path of AW_ONLINE (snowflake paths of up to three hops),
// EBiz (paths that climb to a shared table before descending) and the
// dirty mart (dangling, NULL and duplicated keys). Along a wholly
// functional path the subspace also equals what a group-by credits to
// the constraint's values.
func TestColdConstraintMatchesForwardSemijoin(t *testing.T) {
	dirty, _ := dirtyWarehouse(t)
	rng := rand.New(rand.NewSource(18))
	for _, g := range []*schemagraph.Graph{dataset.AWOnline().Graph, ebiz.Graph, dirty} {
		db := g.DB()
		checked, multiHop, climbing := 0, 0, 0
		for _, tn := range db.TableNames() {
			if tn == g.FactTable() {
				continue
			}
			tab := db.Table(tn)
			paths := g.JoinPaths(tn)
			for round := 0; round < 4*len(paths); round++ {
				path := paths[round%len(paths)]
				col := tab.Schema().Columns[rng.Intn(len(tab.Schema().Columns))]
				domain := tab.DistinctValues(col.Name)
				if len(domain) == 0 {
					continue
				}
				c := Constraint{Table: tn, Attr: col.Name, Path: path}
				for k := 1 + rng.Intn(3); k > 0; k-- {
					c.Values = append(c.Values, domain[rng.Intn(len(domain))])
				}
				ex := NewExecutor(g) // cold: no cached set, no mapping
				got := ex.FactRows([]Constraint{c})
				if want := forwardSemijoin(db, c); !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
					t.Errorf("%s: %s.%s in %#v along %s: scan %d rows, forward walk %d",
						db.Name(), tn, col.Name, c.Values, path, len(got), len(want))
				}
				checked++
				if len(path.Hops) > 1 {
					multiHop++
				}
				if ex.functionalFrom(path) > 0 {
					climbing++
					continue
				}
				credited := 0.0
				counts := ex.GroupBy(ex.FactRows(nil), col.Name, path, CountMeasure(), Count)
				seen := map[relation.Value]bool{}
				for _, v := range c.Values {
					if !seen[v] {
						seen[v] = true
						credited += counts[v]
					}
				}
				if credited != float64(len(got)) {
					t.Errorf("%s: %s.%s in %#v along %s: subspace holds %d facts, group-by credits %v",
						db.Name(), tn, col.Name, c.Values, path, len(got), credited)
				}
			}
		}
		t.Logf("%s: %d constraints (%d multi-hop, %d climbing)", db.Name(), checked, multiHop, climbing)
		if checked == 0 || multiHop == 0 {
			t.Errorf("%s: checked %d constraints, %d multi-hop", db.Name(), checked, multiHop)
		}
	}
}
