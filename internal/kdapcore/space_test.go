package kdapcore

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// top1 resolves a query to its best-ranked interpretation.
func top1(t *testing.T, e *Engine, q string) *StarNet {
	t.Helper()
	nets, err := e.DifferentiateCtx(context.Background(), q)
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate %q: %v (%d nets)", q, err, len(nets))
	}
	return nets[0]
}

// distKeys lists the distributions the engine holds for a space whose
// key starts with prefix.
func distKeys(e *Engine, sp *space, prefix string) []string {
	dm, ok := e.dists.Get(sp.id())
	if !ok {
		return nil
	}
	dm.mu.Lock()
	defer dm.mu.Unlock()
	var out []string
	for k := range dm.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// spacesOf returns the net's DS' and its roll-up spaces as cached.
func spacesOf(t *testing.T, e *Engine, sn *StarNet) (local *space, rollups []rollup) {
	t.Helper()
	local, err := e.subspaceRowsCtx(context.Background(), sn)
	if err != nil {
		t.Fatal(err)
	}
	return local, rollupsOf(t, e, sn)
}

// rollupSpaces lists the roll-ups' background spaces.
func rollupSpaces(rollups []rollup) []*space {
	out := make([]*space, len(rollups))
	for i := range rollups {
		out[i] = rollups[i].sp
	}
	return out
}

// One key per row set: after explore(top-1) → drill on a non-hierarchy
// attribute → explore(drilled), the parent's DS' is held once and is the
// drilled net's background — reached by a rows-cache hit, its group-bys
// and aggregate looked up, not scanned again. At the parent commit the
// parent's rows sat under sn.Signature() and were materialised a second
// time under constraintsKey, and every one of its distributions was
// recomputed.
func TestDrillReusesParentSpace(t *testing.T) {
	e := awOnlineEngine()
	ctx := context.Background()
	opts := DefaultExploreOptions()
	parent := top1(t, e, "Road Bikes")
	if _, err := e.ExploreCtx(ctx, parent, opts); err != nil {
		t.Fatal(err)
	}
	parentSpace, _ := spacesOf(t, e, parent)
	gbBefore, aggBefore := len(distKeys(e, parentSpace, "gb")), len(distKeys(e, parentSpace, "agg"))
	if gbBefore == 0 || aggBefore != 1 {
		t.Fatalf("explore left %d group-bys and %d aggregates on its own space", gbBefore, aggBefore)
	}

	drilled, err := e.Drill(parent, schemagraph.AttrRef{Table: "DimProduct", Attr: "Color"}, "Product", relation.String("Red"))
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore, tr := e.RowsCacheStats(), telemetry.NewTrace("explore")
	f, err := e.ExploreCtx(tr.Context(ctx), drilled, opts)
	if err != nil {
		t.Fatal(err)
	}
	rowsAfter := e.RowsCacheStats()

	// The roll-up along the drilled attribute has no hierarchy parent, so
	// it drops the Color constraint: the background is the parent's DS'.
	drilledSpace, rollups := spacesOf(t, e, drilled)
	var background *space
	for _, ru := range rollups {
		if ru.sp == parentSpace {
			background = ru.sp
		}
	}
	if background == nil {
		t.Fatal("the drilled net's roll-ups do not include the parent's space: one row set is held under two keys")
	}
	if rowsAfter.Hits == rowsBefore.Hits {
		t.Error("the drilled explore never hit the rows cache")
	}
	// Every lookup of a space misses or hits; the drilled explore may
	// miss only on spaces it is first to reach: its own DS' and the
	// roll-up along the Product hierarchy.
	if misses := rowsAfter.Misses - rowsBefore.Misses; misses > 2 {
		t.Errorf("drilled explore missed the rows cache %d times, want <= 2", misses)
	}
	if gb, agg := len(distKeys(e, parentSpace, "gb")), len(distKeys(e, parentSpace, "agg")); gb != gbBefore || agg != aggBefore {
		t.Errorf("drilled explore scanned the parent space again: group-bys %d -> %d, aggregates %d -> %d",
			gbBefore, gb, aggBefore, agg)
	}
	// Every group-by and aggregate kernel call of the second explore is
	// a first-touch fill on one of its new spaces — none ran outside the
	// memo, none over the parent.
	newGB, newAgg := -gbBefore, -aggBefore
	seen := map[*space]bool{}
	for _, sp := range append([]*space{drilledSpace}, rollupSpaces(rollups)...) {
		if !seen[sp] {
			seen[sp] = true
			newGB += len(distKeys(e, sp, "gb"))
			newAgg += len(distKeys(e, sp, "agg"))
		}
	}
	if got := tr.Count(telemetry.GroupBys); got != int64(newGB) {
		t.Errorf("drilled explore ran %d group-by kernels, want %d (one per new (space, attr) pair)", got, newGB)
	}
	if got := tr.Count(telemetry.Aggregates); got != int64(newAgg) {
		t.Errorf("drilled explore ran %d aggregate kernels, want %d (one per new space)", got, newAgg)
	}
	if tr.Count(telemetry.SharedScans) == 0 {
		t.Error("drilled explore adopted no distribution")
	}

	// And the answer is the one a fresh engine computes.
	want, err := awOnlineEngine().ExploreCtx(ctx, drilled, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Fingerprint(), want.Fingerprint()) {
		t.Error("drilled facets over a warm parent space differ from a fresh engine's")
	}
}

// A space's distributions are kept under its identity, not with its
// row list: after a drilled explore, dropping every row list (and only
// them) costs the next explore its semijoins but no scan — each rebuilt
// space has the identity it had and adopts every distribution. When
// distributions were evicted with their rows, the second explore re-ran
// every group-by and aggregate.
func TestDistributionsOutliveRows(t *testing.T) {
	e := awOnlineEngine()
	ctx := context.Background()
	opts := DefaultExploreOptions()
	drilled, err := e.Drill(top1(t, e, "Road Bikes"), schemagraph.AttrRef{Table: "DimProduct", Attr: "Color"}, "Product", relation.String("Red"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.ExploreCtx(ctx, drilled, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.rowsCache.Purge()
	rowsBefore, tr := e.RowsCacheStats(), telemetry.NewTrace("explore")
	again, err := e.ExploreCtx(tr.Context(ctx), drilled, opts)
	if err != nil {
		t.Fatal(err)
	}
	if misses := e.RowsCacheStats().Misses - rowsBefore.Misses; misses == 0 {
		t.Fatal("the explore after the purge rebuilt no row list; the test lost its premise")
	}
	if got := tr.Count(telemetry.GroupBys); got != 0 {
		t.Errorf("explore over rebuilt row lists ran %d group-by kernels, want 0", got)
	}
	if got := tr.Count(telemetry.Aggregates); got != 0 {
		t.Errorf("explore over rebuilt row lists ran %d aggregate kernels, want 0", got)
	}
	if tr.Count(telemetry.SharedScans) == 0 {
		t.Error("explore over rebuilt row lists adopted no distribution")
	}
	if !bytes.Equal(again.Fingerprint(), first.Fingerprint()) {
		t.Error("facets over rebuilt row lists differ from the first explore's")
	}
}

// countSpans counts the spans named name in a finished trace.
func countSpans(s *telemetry.SpanJSON, name string) int {
	n := 0
	if s.Name == name {
		n++
	}
	for _, c := range s.Children {
		n += countSpans(c, name)
	}
	return n
}

// exploreUncached resolves DS' once and hands it to the roll-up build:
// one subspace_semijoin span per explore.
func TestExploreResolvesSubspaceOnce(t *testing.T) {
	e := ebizEngine()
	sn := top1(t, e, "Columbus LCD")
	tr := telemetry.NewTrace("explore")
	if _, err := e.exploreUncached(tr.Context(context.Background()), sn, DefaultExploreOptions()); err != nil {
		t.Fatal(err)
	}
	tr.Finish(0, telemetry.DispositionOK, nil)
	if n := countSpans(tr.JSON(), "subspace_semijoin"); n != 1 {
		t.Errorf("%d subspace_semijoin spans in one explore, want 1:\n%s", n, tr.Tree())
	}
}

// Sibling nets share a one-level roll-up (every bike subcategory
// generalizes to Category = Bikes). Sixteen concurrent explores of them
// agree byte for byte with serial explores on a fresh engine, and leave
// every distribution they used on their spaces: a second round runs no
// group-by and no aggregate kernel. (Spaces are materialised first: two
// first requests for one row set each scan it, and only the space put
// last is kept, with the distributions filled into it.) Run under
// -race.
func TestSiblingExploresFillEachDistributionOnce(t *testing.T) {
	e, fresh := awOnlineEngine(), awOnlineEngine()
	opts := DefaultExploreOptions()
	opts.Parallel = true
	queries := []string{"Road Bikes", "Mountain Bikes", "Touring Bikes"}
	nets := make([]*StarNet, len(queries))
	serial := make([][]byte, len(queries))
	for i, q := range queries {
		nets[i] = top1(t, e, q)
		f, err := fresh.ExploreCtx(context.Background(), top1(t, fresh, q), opts)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = f.Fingerprint()
	}
	// held lists the nets' materialised spaces, and whether one roll-up
	// space is shared by every net.
	held := func() (spaces map[*space]bool, meet bool) {
		spaces, shared := map[*space]bool{}, map[*space]int{}
		for _, sn := range nets {
			local, rollups := spacesOf(t, e, sn)
			spaces[local] = true
			for _, ru := range rollups {
				spaces[ru.sp] = true
				shared[ru.sp]++
				meet = meet || shared[ru.sp] == len(nets)
			}
		}
		return spaces, meet
	}
	spaces0, meet := held()
	if !meet {
		t.Fatal("the sibling nets share no roll-up space; the test lost its premise")
	}

	// round runs sixteen concurrent explores under one trace.
	round := func() *telemetry.Trace {
		tr := telemetry.NewTrace("explores")
		ctx := tr.Context(context.Background())
		const workers = 16
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				i := w % len(nets)
				f, err := e.ExploreCtx(ctx, nets[i], opts)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if !bytes.Equal(f.Fingerprint(), serial[i]) {
					t.Errorf("worker %d: concurrent explore of %q differs from the serial one", w, queries[i])
				}
			}(w)
		}
		wg.Wait()
		return tr
	}
	if tr := round(); tr.Count(telemetry.GroupBys) == 0 {
		t.Fatal("the first round filled no group-by; the test lost its premise")
	}
	spaces, _ := held()
	for sp := range spaces {
		if !spaces0[sp] {
			t.Fatal("a materialised space was replaced while the explores ran")
		}
	}
	tr := round()
	if got := tr.Count(telemetry.GroupBys); got != 0 {
		t.Errorf("second round ran %d group-by kernels, want 0", got)
	}
	if got := tr.Count(telemetry.Aggregates); got != 0 {
		t.Errorf("second round ran %d aggregate kernels, want 0", got)
	}
}

// A space's distributions are a memo that keeps only complete results:
// a fill ended by cancellation is not stored, and the next caller
// computes under its own context.
func TestCancelSharedDistribution(t *testing.T) {
	t.Run("cancelled leader is not adopted", func(t *testing.T) {
		dm := new(distMemo)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := dm.do(ctx, "k", func(ctx context.Context) (any, error) {
			return "partial", ctx.Err()
		}); !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled fill err = %v, want context.Canceled", err)
		}
		got, adopted, err := dm.do(context.Background(), "k", func(context.Context) (any, error) {
			return "complete", nil
		})
		if err != nil || got != "complete" || adopted {
			t.Errorf("next caller got %v (adopted=%v, err=%v), want its own computation", got, adopted, err)
		}
		if v, adopted, err := dm.do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("a completed distribution was computed again")
			return nil, nil
		}); v != "complete" || !adopted || err != nil {
			t.Errorf("lookup after the computation: v=%v adopted=%v err=%v", v, adopted, err)
		}
	})
}
