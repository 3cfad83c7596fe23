package kdapcore

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/stats"
	"kdap/internal/telemetry"
)

// InterestMode selects the application-specific interestingness measure
// of §3: surprises (deviation from the roll-up trend) or bellwethers
// (local aggregates correlated with the larger region).
type InterestMode int

const (
	// Surprise scores a partition by the *negated* correlation between
	// the sub-dataspace series and the roll-up series (Equation 1): the
	// more the local distribution deviates from the background trend, the
	// more interesting.
	Surprise InterestMode = iota
	// Bellwether scores by the positive correlation: local regions that
	// track the larger region rank high (Chen et al.'s bellwethers).
	Bellwether
)

// String names the mode.
func (m InterestMode) String() string {
	switch m {
	case Surprise:
		return "surprise"
	case Bellwether:
		return "bellwether"
	default:
		return "unknown"
	}
}

// ExploreOptions parameterize facet construction.
type ExploreOptions struct {
	Mode InterestMode
	// TopKAttrs is the number of group-by attributes shown per dimension
	// (beyond promoted hit attributes).
	TopKAttrs int
	// TopKInstances is the number of attribute instances per facet.
	TopKInstances int
	// Buckets is the number of basic intervals for numerical attributes
	// (the paper's experiments settle on 40, §6.4).
	Buckets int
	// DisplayIntervals is K, the merged numeric categories shown (§5.3.2).
	DisplayIntervals int
	// SkewLimit is L, the merge skew constraint.
	SkewLimit float64
	// AnnealIters is N, the merge iteration count.
	AnnealIters int
	// Seed drives the annealer's random source.
	Seed uint64
	// Parallel scores candidate group-by attributes concurrently. The
	// result is identical to the sequential order; only wall-clock time
	// changes.
	Parallel bool
	// Pinned lists attributes that are always shown in their dimension's
	// facets regardless of interestingness rank — the §7 "hybrid"
	// consistency extension for users with a concrete aggregation goal.
	Pinned []schemagraph.AttrRef
	// RankCorrelation scores partitions with Spearman rank correlation
	// instead of Pearson — robust when one dominant category would
	// otherwise dictate the comparison.
	RankCorrelation bool
	// CustomScore, when non-nil, replaces the Mode's correlation-to-score
	// mapping: it receives the Pearson correlation between the
	// sub-dataspace and roll-up series of a candidate partition and
	// returns its interestingness. §3 stresses that interestingness is
	// application-specific; Surprise and Bellwether are the paper's two
	// instances and this hook admits others (e.g. |corr| for "any
	// deviation either way").
	CustomScore func(corr float64) float64
	// PartialOnDeadline degrades instead of failing when the context's
	// deadline fires during attribute scoring: ExploreCtx returns the
	// facets built from whatever attributes finished scoring, with
	// Facets.Partial set, rather than context.DeadlineExceeded. The
	// semijoin, total aggregate, roll-up build, and promoted facets must
	// still complete — cancellation before or during those stages always
	// errors, since there is no meaningful partial result without them.
	PartialOnDeadline bool
}

// DefaultExploreOptions returns the paper's default parameters.
func DefaultExploreOptions() ExploreOptions {
	return ExploreOptions{
		Mode:             Surprise,
		TopKAttrs:        3,
		TopKInstances:    8,
		Buckets:          40,
		DisplayIntervals: 6,
		SkewLimit:        4,
		AnnealIters:      500,
		Seed:             1,
	}
}

// Instance is one attribute value (or numeric interval) inside a facet,
// with its aggregate over DS' and its Equation 2 deviation score.
type Instance struct {
	// Label renders the instance ("Mountain Bikes", "323 - 470").
	Label string
	// Value is the categorical attribute value; NULL for numeric ranges.
	Value relation.Value
	// Lo and Hi bound a numeric range instance.
	Lo, Hi float64
	// Aggregate is G(DS' | attr = this instance).
	Aggregate float64
	// Score is Equation 2: the share of this instance within DS' minus
	// its share within RUP(DS').
	Score float64
}

// AttrFacet is one ranked group-by attribute with its organized instances.
type AttrFacet struct {
	Attr schemagraph.AttrRef
	// Role is the join-path role used to reach the attribute.
	Role string
	// Score is the roll-up partitioning score (Equation 1 for surprise
	// mode); promoted attributes carry +Inf.
	Score float64
	// Promoted marks hit-group attributes that are always selected
	// (§5.2.1's hitted-dimension promotion).
	Promoted bool
	// Numeric marks numerically partitioned domains.
	Numeric bool
	// Instances are the facet's entries, ranked.
	Instances []Instance
}

// DimensionFacets groups the selected facets of one dimension.
type DimensionFacets struct {
	Dimension  string
	Hitted     bool
	Attributes []*AttrFacet
}

// Facets is the explore-phase result: the dynamically constructed
// multi-faceted interface over the chosen sub-dataspace.
type Facets struct {
	Net *StarNet
	// SubspaceSize is |DS'| in fact rows.
	SubspaceSize int
	// TotalAggregate is G(DS').
	TotalAggregate float64
	// Dimensions appear in static (alphabetical) order, per §5.1.
	Dimensions []*DimensionFacets
	// Partial marks a result degraded by ExploreOptions.PartialOnDeadline:
	// the deadline fired during attribute scoring and only the attributes
	// scored so far are included.
	Partial bool
}

// rollup is one background space RUP(DS'): the sub-dataspace generalized
// along one hitted dimension.
type rollup struct {
	dim string
	// sp is the background space. Distinct interpretations meet at these
	// constantly — every single-group net rolls up to the same "all"
	// space — and share the distributions it carries.
	sp  *space
	agg float64
}

// ExploreCtx runs the second KDAP phase: build the dynamic facets of the
// star net's sub-dataspace. When a telemetry.Trace is attached, the
// stages of §5's facet construction are recorded as spans
// (subspace_semijoin → rollup_build → facet_score with per-attribute
// children → groupby_kernel / numeric_series / interval_anneal leaves).
// Stages attach directly under the caller's current span — traced
// callers name their trace root "explore", so no wrapper span is added
// here.
//
// When an answer cache is configured (SetAnswerCache), repeated
// identical explores are served through it, and how the answer was
// served is recorded on the request's trace
// (telemetry.FromContext). A cached answer is a shallow copy bound to the
// caller's own net; its inner structure is shared and must be treated
// as immutable.
func (e *Engine) ExploreCtx(ctx context.Context, sn *StarNet, opts ExploreOptions) (*Facets, error) {
	var key string
	cacheable := false
	if e.explAnswers != nil {
		key, cacheable = ExploreCacheKey(sn, opts)
	}
	if !cacheable {
		noteCache(ctx, cacheBypass)
		return e.exploreUncached(ctx, sn, opts)
	}
	f, err := cachedAnswer(ctx, e.explAnswers, key, func(ctx context.Context) (*Facets, bool, error) {
		f, err := e.exploreUncached(ctx, sn, opts)
		if err != nil {
			return nil, false, err
		}
		// A deadline-degraded result answers this caller but must not
		// shadow the complete answer for everyone after it.
		return f, !f.Partial, nil
	})
	if err != nil {
		return nil, err
	}
	return rebindFacets(f, sn), nil
}

// exploreUncached is the facet-construction pipeline itself.
func (e *Engine) exploreUncached(ctx context.Context, sn *StarNet, opts ExploreOptions) (*Facets, error) {
	if opts.TopKAttrs <= 0 || opts.TopKInstances <= 0 || opts.Buckets <= 0 {
		return nil, fmt.Errorf("kdap: non-positive explore options")
	}
	local, err := e.subspaceRowsCtx(ctx, sn)
	if err != nil {
		return nil, err
	}
	if len(local.rows) == 0 {
		return nil, fmt.Errorf("kdap: empty sub-dataspace for %q", sn.Query)
	}
	totalAgg, err := e.spaceAggregate(ctx, local)
	if err != nil {
		return nil, err
	}
	f := &Facets{
		Net:            sn,
		SubspaceSize:   len(local.rows),
		TotalAggregate: totalAgg,
	}
	_, rsp := telemetry.StartSpan(ctx, "rollup_build")
	rollups, err := e.buildRollupsCtx(ctx, sn, local)
	rsp.End()
	if err != nil {
		return nil, err
	}

	hitDims := map[string]bool{}
	for i := range sn.Groups {
		hitDims[sn.Groups[i].Path.Dim] = true
	}

	dims := e.graph.Dimensions()
	sort.Slice(dims, func(i, j int) bool { return dims[i].Name < dims[j].Name })

	// Lay out the scoring work: promoted facets are cheap and built
	// inline, candidate attributes become jobs that may run in parallel.
	type job struct {
		dim  int
		attr schemagraph.AttrRef
		role string
		out  *AttrFacet
		err  error
	}
	dfs := make([]*DimensionFacets, len(dims))
	var jobs []*job
	for di, d := range dims {
		dfs[di] = &DimensionFacets{Dimension: d.Name, Hitted: hitDims[d.Name]}
		role := d.Name
		for _, bg := range sn.Groups {
			if bg.Path.Dim == d.Name {
				role = bg.Path.Role
				break
			}
		}
		// Hit attributes are promoted unconditionally (§5.2.1 — they need
		// not be declared group-by candidates; the hit makes them one).
		promoted := map[schemagraph.AttrRef]bool{}
		for i := range sn.Groups {
			bg := &sn.Groups[i]
			if bg.Path.Dim != d.Name {
				continue
			}
			attr := schemagraph.AttrRef{Table: bg.Group.Table, Attr: bg.Group.Attr}
			if promoted[attr] {
				continue
			}
			promoted[attr] = true
			af, err := e.promotedFacet(ctx, attr, bg, local, f.TotalAggregate, rollups, opts)
			if err != nil {
				return nil, err
			}
			dfs[di].Attributes = append(dfs[di].Attributes, af)
		}
		for _, attr := range d.GroupBy {
			if promoted[attr] {
				continue
			}
			jobs = append(jobs, &job{dim: di, attr: attr, role: role})
		}
	}
	sctx, ssp := telemetry.StartSpan(ctx, "facet_score")
	runJob := func(j *job) {
		jctx, jsp := telemetry.StartSpan(sctx, "score "+j.attr.String())
		j.out, j.err = e.scoreAttr(jctx, j.attr, j.role, local, f.TotalAggregate, rollups, opts)
		jsp.End()
	}
	if opts.Parallel && len(jobs) > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for _, j := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(j *job) {
				defer wg.Done()
				runJob(j)
				<-sem
			}(j)
		}
		wg.Wait()
	} else {
		for _, j := range jobs {
			runJob(j)
			// Sequential scoring stops at the first cancelled job; the
			// remaining jobs would all fail the same way.
			if j.err != nil && ctx.Err() != nil {
				break
			}
		}
	}
	ssp.End()
	// The degradation decision (§7's responsiveness concern): a deadline
	// that fires during scoring either aborts the explore or — when the
	// caller opted in — downgrades to the attributes scored so far.
	if err := ctx.Err(); err != nil {
		if !opts.PartialOnDeadline {
			return nil, err
		}
		f.Partial = true
	} else {
		for _, j := range jobs {
			if j.err != nil {
				return nil, j.err
			}
		}
	}

	pinned := make(map[schemagraph.AttrRef]bool, len(opts.Pinned))
	for _, p := range opts.Pinned {
		pinned[p] = true
	}
	for di := range dims {
		var ranked []*AttrFacet
		for _, j := range jobs {
			if j.dim == di && j.out != nil {
				ranked = append(ranked, j.out)
			}
		}
		sort.SliceStable(ranked, func(i, j int) bool {
			if ranked[i].Score != ranked[j].Score {
				return ranked[i].Score > ranked[j].Score
			}
			return ranked[i].Attr.String() < ranked[j].Attr.String()
		})
		kept := ranked
		if len(kept) > opts.TopKAttrs {
			kept = kept[:opts.TopKAttrs]
		}
		// Pinned attributes survive the cut in rank order (§7 hybrid).
		for _, af := range ranked[len(kept):] {
			if pinned[af.Attr] {
				kept = append(kept, af)
			}
		}
		dfs[di].Attributes = append(dfs[di].Attributes, kept...)
		if len(dfs[di].Attributes) > 0 {
			f.Dimensions = append(f.Dimensions, dfs[di])
		}
	}
	return f, nil
}

// generalizeConstraint lifts one hit group's constraint up its hierarchy
// by one level; ok is false when there is no parent level (the caller
// then drops the constraint, rolling up to "all"). The error is a
// cancelled walk to the parent level.
func (e *Engine) generalizeConstraint(ctx context.Context, c olap.Constraint, role string) (olap.Constraint, bool, error) {
	attr := schemagraph.AttrRef{Table: c.Table, Attr: c.Attr}
	parent, dim, ok := e.graph.HierarchyParent(attr)
	if !ok {
		return olap.Constraint{}, false, nil
	}
	hitTable := e.graph.DB().Table(c.Table)
	hitRows := hitTable.LookupIn(c.Attr, c.Values)
	paths := e.graph.InnerPathsWithin(c.Table, parent.Table, dim)
	if len(paths) == 0 {
		return olap.Constraint{}, false, nil
	}
	parentVals, err := e.exec.DimValues(ctx, hitRows, paths[0], parent.Attr)
	if err != nil || len(parentVals) == 0 {
		return olap.Constraint{}, false, err
	}
	ppath, ok := e.graph.PathFromFact(parent.Table, role)
	if !ok {
		return olap.Constraint{}, false, nil
	}
	return olap.Constraint{Table: parent.Table, Attr: parent.Attr, Values: parentVals, Path: ppath}, true, nil
}

// buildRollupsCtx produces one background space per hitted group by
// generalizing that group to the parent level of its hierarchy (§5.2.1's
// roll-up partitioning). When generalizing one level does not actually
// enlarge the subspace — the hit value is its parent's only child, like a
// state's single city — the roll-up climbs further, and a hit with no
// (remaining) hierarchy parent rolls all the way up by dropping its
// constraint. local is the net's already-resolved DS': the climb test
// compares against the very space the facets are built from. Each
// per-group semijoin and aggregate goes through the ctx-first executor
// entry points, so a cancelled explore stops between (or inside) the
// roll-up computations.
func (e *Engine) buildRollupsCtx(ctx context.Context, sn *StarNet, local *space) ([]rollup, error) {
	base := sn.Constraints() // merged: one constraint per attribute domain
	ranges := sn.filterConstraints()
	var out []rollup
	for i := range base {
		others := make([]olap.Constraint, 0, len(base)+len(ranges))
		others = append(others, base[:i]...)
		others = append(others, base[i+1:]...)
		others = append(others, ranges...) // numeric filters slice every roll-up

		cur := base[i]
		role := cur.Path.Role
		var sp *space
		for {
			gen, ok, err := e.generalizeConstraint(ctx, cur, role)
			if err != nil {
				return nil, err
			}
			var cs []olap.Constraint
			if ok {
				cs = append(append([]olap.Constraint(nil), others...), gen)
			} else {
				cs = others // top of the hierarchy: roll up to "all"
			}
			sp, err = e.factRowsKeyed(ctx, cs)
			if err != nil {
				return nil, err
			}
			if !ok || len(sp.rows) > len(local.rows) {
				break
			}
			// The parent level did not widen the space; climb further.
			cur = gen
		}
		if len(sp.rows) == 0 {
			continue
		}
		agg, err := e.spaceAggregate(ctx, sp)
		if err != nil {
			return nil, err
		}
		out = append(out, rollup{dim: base[i].Path.Dim, sp: sp, agg: agg})
	}
	return out, nil
}

// constraintsKey renders the canonical identity of a constrained
// fact-row set — the one cache key of a space, whether it is reached as
// a net's own DS' or as a roll-up background — from each constraint's
// own key. Order-independent: the parts are sorted.
func constraintsKey(cs []olap.Constraint) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.Key()
	}
	sort.Strings(parts)
	return "ru\x1f" + strings.Join(parts, "\x1f")
}

// modeScore converts a correlation into the mode's interestingness score:
// Equation 1 negates it for surprises; bellwethers use it directly.
func modeScore(corr float64, mode InterestMode) float64 {
	if mode == Surprise {
		return -corr
	}
	return corr
}

// minPartitionGroups is the smallest partition size whose correlation
// carries evidence: one or two categories correlate to 0 or ±1 trivially
// regardless of the data.
const minPartitionGroups = 3

// uninformativeScore ranks evidence-free partitions at the very bottom,
// below even perfectly-correlated (least interesting) real partitions.
const uninformativeScore = -1.5

// evidenceScore converts an aligned partition pair into the mode's
// interestingness score, sinking partitions too small to be informative.
func evidenceScore(x, y []float64, opts ExploreOptions) float64 {
	if len(x) < minPartitionGroups {
		return uninformativeScore
	}
	corr := stats.Pearson(x, y)
	if opts.RankCorrelation {
		corr = stats.Spearman(x, y)
	}
	if opts.CustomScore != nil {
		return opts.CustomScore(corr)
	}
	return modeScore(corr, opts.Mode)
}

// scoreAttr ranks one candidate group-by attribute by roll-up
// partitioning and, if it survives, organizes its instances. A nil facet
// with nil error means the attribute produced no informative partition;
// a non-nil error is a cancelled context.
func (e *Engine) scoreAttr(ctx context.Context, attr schemagraph.AttrRef, role string, local *space,
	totalAgg float64, rollups []rollup, opts ExploreOptions) (*AttrFacet, error) {

	path, ok := e.graph.PathFromFact(attr.Table, role)
	if !ok {
		return nil, nil
	}
	col, ok := e.graph.DB().Table(attr.Table).Schema().Column(attr.Attr)
	if !ok {
		return nil, nil
	}
	numeric := col.Kind == relation.KindInt || col.Kind == relation.KindFloat
	if numeric {
		return e.scoreNumericAttr(ctx, attr, path, local, totalAgg, rollups, opts)
	}
	return e.scoreCategoricalAttr(ctx, attr, path, local, totalAgg, rollups, opts)
}

// groupBysOver returns G(DS', attr) and every roll-up's G(RUP, attr).
// Each is looked up on its space and scanned only on first touch, by a
// solo GroupByCtx call.
func (e *Engine) groupBysOver(ctx context.Context, local *space, rollups []rollup, attr string,
	path schemagraph.JoinPath) (map[relation.Value]float64, []map[relation.Value]float64, error) {

	lg, err := e.spaceGroupBy(ctx, local, attr, path)
	if err != nil {
		return nil, nil, err
	}
	bgs := make([]map[relation.Value]float64, len(rollups))
	for i := range rollups {
		if bgs[i], err = e.spaceGroupBy(ctx, rollups[i].sp, attr, path); err != nil {
			return nil, nil, err
		}
	}
	return lg, bgs, nil
}

// scoreCategoricalAttr applies Equation 1 over a categorical partition:
// correlate the DS' aggregate series with each roll-up's series over the
// categories present in DS', keep the worst (most interesting) score.
func (e *Engine) scoreCategoricalAttr(ctx context.Context, attr schemagraph.AttrRef, path schemagraph.JoinPath,
	sp *space, totalAgg float64, rollups []rollup, opts ExploreOptions) (*AttrFacet, error) {

	_, gsp := telemetry.StartSpan(ctx, "groupby_kernel")
	local, bgs, err := e.groupBysOver(ctx, sp, rollups, attr.Attr, path)
	gsp.End()
	if err != nil {
		return nil, err
	}
	if len(local) == 0 {
		return nil, nil
	}
	cats := make([]relation.Value, 0, len(local))
	for v := range local {
		cats = append(cats, v)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].Compare(cats[j]) < 0 })
	x := make([]float64, len(cats))
	for i, c := range cats {
		x[i] = local[c]
	}

	_, csp := telemetry.StartSpan(ctx, "rollup_correlate")
	defer csp.End()
	best := math.Inf(-1)
	var bestRU *rollup
	var bestBG map[relation.Value]float64
	for i := range rollups {
		ru := &rollups[i]
		bg := bgs[i]
		y := make([]float64, len(cats))
		for j, c := range cats {
			y[j] = bg[c]
		}
		s := evidenceScore(x, y, opts)
		if s > best {
			best = s
			bestRU = ru
			bestBG = bg
		}
	}
	if bestRU == nil {
		return nil, nil
	}
	af := &AttrFacet{Attr: attr, Role: path.Role, Score: best}
	af.Instances = e.categoricalInstances(cats, local, bestBG, totalAgg, bestRU, opts)
	return af, nil
}

// categoricalInstances scores every category with Equation 2 and ranks:
// surprise mode by absolute deviation, bellwether mode by contribution.
// bg is the winning roll-up's background aggregate per category, passed
// down from the scoring loop so the group-by is not run twice.
func (e *Engine) categoricalInstances(cats []relation.Value, local, bg map[relation.Value]float64,
	totalAgg float64, ru *rollup, opts ExploreOptions) []Instance {

	out := make([]Instance, 0, len(cats))
	for _, c := range cats {
		var score float64
		if totalAgg != 0 && ru.agg != 0 {
			score = local[c]/totalAgg - bg[c]/ru.agg
		}
		out = append(out, Instance{
			Label:     c.Text(),
			Value:     c,
			Aggregate: local[c],
			Score:     score,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		var a, b float64
		if opts.Mode == Surprise {
			a, b = math.Abs(out[i].Score), math.Abs(out[j].Score)
		} else {
			a, b = out[i].Aggregate, out[j].Aggregate
		}
		if a != b {
			return a > b
		}
		return out[i].Label < out[j].Label
	})
	if len(out) > opts.TopKInstances {
		out = out[:opts.TopKInstances]
	}
	return out
}

// scoreNumericAttr bucketizes the numeric domain into basic intervals
// (§5.2.2), applies Equation 1 over the bucket series, then merges the
// basic intervals into display ranges with Algorithm 2.
func (e *Engine) scoreNumericAttr(ctx context.Context, attr schemagraph.AttrRef, path schemagraph.JoinPath,
	local *space, totalAgg float64, rollups []rollup, opts ExploreOptions) (*AttrFacet, error) {

	_, nsp := telemetry.StartSpan(ctx, "numeric_series")
	localVals, err := e.exec.NumericSeriesCtx(ctx, local.rows, attr.Attr, path, e.measure)
	nsp.End()
	if err != nil {
		return nil, err
	}
	if len(localVals) == 0 {
		return nil, nil
	}
	// A numeric domain with no more distinct values than display ranges
	// is effectively categorical (a year column, a banded income level):
	// show the values themselves instead of fractional buckets.
	distinct := map[float64]bool{}
	for _, vm := range localVals {
		distinct[vm.Value] = true
		if len(distinct) > opts.DisplayIntervals {
			break
		}
	}
	if len(distinct) <= opts.DisplayIntervals {
		return e.scoreCategoricalAttr(ctx, attr, path, local, totalAgg, rollups, opts)
	}
	iv := MakeIntervals(localVals, opts.Buckets)
	x, err := e.spaceSeries(ctx, local, attr.Attr, path, iv, localVals)
	if err != nil {
		return nil, err
	}

	_, csp := telemetry.StartSpan(ctx, "rollup_correlate")
	best := math.Inf(-1)
	var bestY []float64
	var bestRU *rollup
	for i := range rollups {
		ru := &rollups[i]
		y, err := e.spaceSeries(ctx, ru.sp, attr.Attr, path, iv, nil)
		if err != nil {
			csp.End()
			return nil, err
		}
		xo, yo := OccupiedSeries(x, y)
		s := evidenceScore(xo, yo, opts)
		if s > best {
			best = s
			bestY = y
			bestRU = ru
		}
	}
	csp.End()
	if bestRU == nil {
		return nil, nil
	}
	af := &AttrFacet{Attr: attr, Role: path.Role, Score: best, Numeric: true}
	af.Instances, err = e.numericInstances(ctx, iv, x, bestY, totalAgg, bestRU.agg, opts)
	if err != nil {
		return nil, err
	}
	return af, nil
}

// numericInstances merges basic intervals into K display ranges and
// renders them as instances with Equation 2 scores over range sums.
func (e *Engine) numericInstances(ctx context.Context, iv Intervals, x, y []float64,
	totalAgg, ruAgg float64, opts ExploreOptions) ([]Instance, error) {

	cfg := AnnealConfig{
		K: opts.DisplayIntervals, L: opts.SkewLimit,
		N: opts.AnnealIters, AcceptProb: 0.25, Seed: opts.Seed,
	}
	_, asp := telemetry.StartSpan(ctx, "interval_anneal")
	res, err := MergeIntervalsCtx(ctx, x, y, cfg)
	asp.End()
	if err != nil {
		return nil, err
	}
	bounds := append(append([]int(nil), res.Splits...), len(x))
	prev := 0
	out := make([]Instance, 0, len(bounds))
	for _, b := range bounds {
		var xs, ys float64
		for i := prev; i < b; i++ {
			xs += x[i]
			ys += y[i]
		}
		var score float64
		if totalAgg != 0 && ruAgg != 0 {
			score = xs/totalAgg - ys/ruAgg
		}
		out = append(out, Instance{
			Label:     fmt.Sprintf("%s - %s", trimFloat(iv.Edges[prev]), trimFloat(iv.Edges[b])),
			Value:     relation.Null(),
			Lo:        iv.Edges[prev],
			Hi:        iv.Edges[b],
			Aggregate: xs,
			Score:     score,
		})
		prev = b
	}
	// Numeric ranges keep domain order for navigational access (§5.3.2's
	// first objective) rather than score order.
	if len(out) > opts.TopKInstances {
		out = out[:opts.TopKInstances]
	}
	return out, nil
}

// promotedFacet builds the facet for a hit attribute: always selected,
// instances are the hit values themselves (the user's entry point for
// drill-down and for resolving residual ambiguity, §5.2.1).
func (e *Engine) promotedFacet(ctx context.Context, attr schemagraph.AttrRef, bg *BoundGroup,
	sp *space, totalAgg float64, rollups []rollup, opts ExploreOptions) (*AttrFacet, error) {

	af := &AttrFacet{Attr: attr, Role: bg.Path.Role, Score: math.Inf(1), Promoted: true}
	var ru *rollup
	for i := range rollups {
		if rollups[i].dim == bg.Path.Dim {
			ru = &rollups[i]
			break
		}
	}
	var withRU []rollup
	if ru != nil {
		withRU = []rollup{*ru}
	}
	local, bgs, err := e.groupBysOver(ctx, sp, withRU, attr.Attr, bg.Path)
	if err != nil {
		return nil, err
	}
	var bgAgg map[relation.Value]float64
	if ru != nil {
		bgAgg = bgs[0]
	}
	for _, v := range bg.Group.Values() {
		inst := Instance{Label: v.Text(), Value: v, Aggregate: local[v]}
		if ru != nil && totalAgg != 0 && ru.agg != 0 {
			inst.Score = local[v]/totalAgg - bgAgg[v]/ru.agg
		}
		af.Instances = append(af.Instances, inst)
	}
	sort.SliceStable(af.Instances, func(i, j int) bool {
		if af.Instances[i].Aggregate != af.Instances[j].Aggregate {
			return af.Instances[i].Aggregate > af.Instances[j].Aggregate
		}
		return af.Instances[i].Label < af.Instances[j].Label
	})
	if len(af.Instances) > opts.TopKInstances {
		af.Instances = af.Instances[:opts.TopKInstances]
	}
	return af, nil
}

// Drill narrows the star net by one facet instance: a categorical
// instance adds (or refines) a constraint on its attribute, enabling the
// §3 navigational loop in which each instance is an entry point for
// drill-down. The returned net is independent of the original.
func (e *Engine) Drill(sn *StarNet, attr schemagraph.AttrRef, role string, value relation.Value) (*StarNet, error) {
	path, ok := e.graph.PathFromFact(attr.Table, role)
	if !ok {
		return nil, fmt.Errorf("kdap: cannot reach %s from the fact table", attr)
	}
	value, err := e.coerceValue(attr, value)
	if err != nil {
		return nil, err
	}
	hg := &HitGroup{
		Table: attr.Table,
		Attr:  attr.Attr,
		Hits:  []Hit{{Table: attr.Table, Attr: attr.Attr, Value: value, Score: 1}},
	}
	out := &StarNet{
		Query:   sn.Query,
		Groups:  append(append([]BoundGroup(nil), sn.Groups...), BoundGroup{Group: hg, Path: path}),
		Filters: sn.Filters,
		Score:   sn.Score,
	}
	return out, nil
}

// coerceValue converts a drill value to the attribute column's kind —
// callers arriving from rendered labels (the CLI, the HTTP API) hold
// strings even for numeric attributes shown categorically.
func (e *Engine) coerceValue(attr schemagraph.AttrRef, v relation.Value) (relation.Value, error) {
	col, err := e.attrColumn(attr)
	if err != nil {
		return relation.Value{}, err
	}
	if v.Kind() == col.Kind || v.IsNull() {
		return v, nil
	}
	if v.Kind() == relation.KindString {
		s := v.Str()
		switch col.Kind {
		case relation.KindInt:
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return relation.Value{}, fmt.Errorf("kdap: %s expects an integer, got %q", attr, s)
			}
			return relation.Int(i), nil
		case relation.KindFloat:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return relation.Value{}, fmt.Errorf("kdap: %s expects a number, got %q", attr, s)
			}
			return relation.Float(f), nil
		case relation.KindBool:
			b, err := strconv.ParseBool(s)
			if err != nil {
				return relation.Value{}, fmt.Errorf("kdap: %s expects a boolean, got %q", attr, s)
			}
			return relation.Bool(b), nil
		}
	}
	if v.Numeric() && col.Kind == relation.KindFloat {
		return relation.Float(v.AsFloat()), nil
	}
	if v.Kind() == relation.KindFloat && col.Kind == relation.KindInt && v.FloatVal() == math.Trunc(v.FloatVal()) {
		return relation.Int(int64(v.FloatVal())), nil
	}
	return relation.Value{}, fmt.Errorf("kdap: cannot use %s value for %s (%s column)", v.Kind(), attr, col.Kind)
}

// attrColumn resolves a drill's attribute to its column, rejecting
// unknown tables and columns: drill targets arrive from outside (the
// HTTP API, the REPL), and a net carrying a column that does not exist
// would fail only later, inside the scan.
func (e *Engine) attrColumn(attr schemagraph.AttrRef) (relation.Column, error) {
	t := e.graph.DB().Table(attr.Table)
	if t == nil {
		return relation.Column{}, fmt.Errorf("kdap: no table %q", attr.Table)
	}
	col, ok := t.Schema().Column(attr.Attr)
	if !ok {
		return relation.Column{}, fmt.Errorf("kdap: no attribute %s", attr)
	}
	return col, nil
}

// DrillRange narrows the star net to a numeric facet range [lo, hi) —
// the drill-down entry point for the numeric instances Algorithm 2
// produces. The range is closed on the right when hi equals the domain
// maximum, matching the bucketizer's convention, which DrillRange
// approximates by treating the bound as inclusive.
func (e *Engine) DrillRange(sn *StarNet, attr schemagraph.AttrRef, role string, lo, hi float64) (*StarNet, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("kdap: range bounds must be finite, got [%g, %g]", lo, hi)
	}
	if hi < lo {
		return nil, fmt.Errorf("kdap: empty range [%g, %g]", lo, hi)
	}
	col, err := e.attrColumn(attr)
	if err != nil {
		return nil, err
	}
	if col.Kind != relation.KindInt && col.Kind != relation.KindFloat {
		return nil, fmt.Errorf("kdap: attribute %s is not numeric", attr)
	}
	mk := func(op FilterOp, v float64) (NumericFilter, error) {
		fact := e.graph.DB().Table(e.graph.FactTable())
		if attr.Table == fact.Name() {
			return NumericFilter{
				Raw:  fmt.Sprintf("%s%s%g", attr.Attr, op, v),
				Attr: attr, OnFact: true, Op: op, Value: v,
			}, nil
		}
		path, ok := e.graph.PathFromFact(attr.Table, role)
		if !ok {
			return NumericFilter{}, fmt.Errorf("kdap: cannot reach %s from the fact table", attr)
		}
		return NumericFilter{
			Raw:  fmt.Sprintf("%s%s%g", attr.Attr, op, v),
			Attr: attr, Role: role, Path: path, Op: op, Value: v,
		}, nil
	}
	geFilter, err := mk(OpGE, lo)
	if err != nil {
		return nil, err
	}
	leFilter, err := mk(OpLE, hi)
	if err != nil {
		return nil, err
	}
	out := &StarNet{
		Query:   sn.Query,
		Groups:  append([]BoundGroup(nil), sn.Groups...),
		Filters: append(append([]NumericFilter(nil), sn.Filters...), geFilter, leFilter),
		Score:   sn.Score,
	}
	return out, nil
}
