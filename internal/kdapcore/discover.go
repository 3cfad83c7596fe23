package kdapcore

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// Discovery is one result of a batch interestingness scan: a subspace
// (one instance of the scanned hierarchy level) together with its most
// interesting group-by attribute and that attribute's Equation 1 score.
type Discovery struct {
	// Value is the scanned level's instance defining the subspace
	// ("Mountain Bikes", "California", …).
	Value relation.Value
	// Rows is the subspace size in fact rows.
	Rows int
	// Aggregate is the engine measure's aggregate over the subspace.
	Aggregate float64
	// BestAttr is the group-by attribute whose partition scored highest
	// for the requested mode, with Role its join role.
	BestAttr schemagraph.AttrRef
	Role     string
	// Score is Equation 1's value for BestAttr.
	Score float64
}

// Discover runs the explore phase's interestingness machinery as a batch
// scan, without a keyword query: every instance of the given hierarchy
// level becomes a candidate subspace, scored by its best group-by
// attribute under the requested mode, and the topK most interesting
// subspaces are returned, best first.
//
// This is discovery-driven exploration in the sense of Sarawagi et al. —
// the paper's §5.2.1 relies on the analyst's keywords to pick the
// subspace; Discover inverts that and surfaces the subspaces an analyst
// should look at. (The paper leaves automatic candidate discovery as
// future work.)
//
// A cancelled ctx stops the scan and returns ctx.Err(); an instance
// whose subspace is empty or cannot be explored is skipped.
func (e *Engine) Discover(ctx context.Context, level schemagraph.AttrRef, role string, mode InterestMode, topK int) ([]Discovery, error) {
	if topK <= 0 {
		return nil, fmt.Errorf("kdap: non-positive topK")
	}
	table := e.graph.DB().Table(level.Table)
	if table == nil {
		return nil, fmt.Errorf("kdap: no table %q", level.Table)
	}
	path, ok := e.graph.PathFromFact(level.Table, role)
	if !ok {
		return nil, fmt.Errorf("kdap: %s cannot reach the fact table", level)
	}
	opts := DefaultExploreOptions()
	opts.Mode = mode
	opts.TopKAttrs = 1
	opts.TopKInstances = 1

	var out []Discovery
	for _, v := range table.DistinctValues(level.Attr) {
		hg := &HitGroup{
			Table: level.Table,
			Attr:  level.Attr,
			Hits:  []Hit{{Table: level.Table, Attr: level.Attr, Value: v, Score: 1, RawScore: 1}},
		}
		sn := &StarNet{
			Query:  fmt.Sprintf("discover:%s=%s", level, v.Text()),
			Groups: []BoundGroup{{Group: hg, Path: path}},
		}
		facets, err := e.ExploreCtx(ctx, sn, opts)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		best := Discovery{
			Value: v, Rows: facets.SubspaceSize, Aggregate: facets.TotalAggregate,
			Score: math.Inf(-1),
		}
		for _, d := range facets.Dimensions {
			for _, a := range d.Attributes {
				if a.Promoted {
					continue
				}
				if a.Score > best.Score {
					best.Score = a.Score
					best.BestAttr = a.Attr
					best.Role = a.Role
				}
			}
		}
		if math.IsInf(best.Score, -1) {
			continue
		}
		out = append(out, best)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Value.Text() < out[j].Value.Text()
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
