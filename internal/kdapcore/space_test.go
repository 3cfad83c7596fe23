package kdapcore

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kdap/internal/cache"
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

// distKeys lists the distributions a space holds whose key starts with
// prefix.
func distKeys(sp *space, prefix string) []string {
	sp.dist.mu.Lock()
	defer sp.dist.mu.Unlock()
	var out []string
	for k := range sp.dist.m {
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
	gbBefore, aggBefore := len(distKeys(parentSpace, "gb")), len(distKeys(parentSpace, "agg"))
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
	if gb, agg := len(distKeys(parentSpace, "gb")), len(distKeys(parentSpace, "agg")); gb != gbBefore || agg != aggBefore {
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
			newGB += len(distKeys(sp, "gb"))
			newAgg += len(distKeys(sp, "agg"))
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

// Exactly once: sibling nets share a one-level roll-up (every bike
// subcategory generalizes to Category = Bikes), and sixteen concurrent
// explores of them over materialised spaces run each (space, attribute)
// group-by and each space's aggregate one time — the kernel-call delta
// equals the number of distributions the spaces gained. (Spaces are
// materialised first: two first requests for one row set each scan it,
// and only the space put last is kept.) Run under -race.
func TestSiblingExploresFillEachDistributionOnce(t *testing.T) {
	e := awOnlineEngine()
	opts := DefaultExploreOptions()
	opts.Parallel = true
	nets := []*StarNet{top1(t, e, "Road Bikes"), top1(t, e, "Mountain Bikes"), top1(t, e, "Touring Bikes")}
	held := func() (spaces map[*space]bool, shared map[*space]int, gb, agg int64) {
		spaces, shared = map[*space]bool{}, map[*space]int{}
		for _, sn := range nets {
			local, rollups := spacesOf(t, e, sn)
			spaces[local] = true
			for _, ru := range rollups {
				spaces[ru.sp] = true
				shared[ru.sp]++
			}
		}
		for sp := range spaces {
			gb += int64(len(distKeys(sp, "gb")))
			agg += int64(len(distKeys(sp, "agg")))
		}
		return spaces, shared, gb, agg
	}
	spaces0, _, gb0, agg0 := held()
	// One trace records all sixteen explores.
	tr := telemetry.NewTrace("explores")
	ctx := tr.Context(context.Background())

	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := e.ExploreCtx(ctx, nets[w%len(nets)], opts); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()

	spaces, shared, gb, agg := held()
	for sp := range spaces {
		if !spaces0[sp] {
			t.Fatal("a materialised space was replaced while the explores ran")
		}
	}
	meet := false
	for _, n := range shared {
		meet = meet || n == len(nets)
	}
	if !meet || gb == gb0 {
		t.Fatal("the sibling nets share no roll-up space, or their explores filled no group-by; the test lost its premise")
	}
	if got := tr.Count(telemetry.GroupBys); got != gb-gb0 {
		t.Errorf("%d group-by kernels for %d distinct (space, attr) pairs", got, gb-gb0)
	}
	if got := tr.Count(telemetry.Aggregates); got != agg-agg0 {
		t.Errorf("%d aggregate kernels for %d distinct spaces", got, agg-agg0)
	}
	if tr.Count(telemetry.SharedScans) == 0 {
		t.Error("sixteen explores of three sibling nets adopted nothing")
	}
}

// The sharing rules of a space's distributions, which are cache.Group's:
// a cancelled leader's result is not adopted — the waiter recomputes
// under its own context — and a panicking leader vacates the slot and
// wakes its waiters with an error before the panic propagates.
func TestCancelSharedDistribution(t *testing.T) {
	// waitFor blocks until the waiter's trace shows it parked on the
	// in-flight entry.
	waitFor := func(t *testing.T, tr *telemetry.Trace) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, waiting := tr.Stages()["distribution_wait"]; waiting {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("waiter never blocked on the entry")
			}
		}
	}

	t.Run("cancelled leader is not adopted", func(t *testing.T) {
		dm := new(distMemo)
		leaderCtx, cancel := context.WithCancel(context.Background())
		entered := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		var leaderErr error
		go func() {
			defer wg.Done()
			_, _, leaderErr = dm.do(leaderCtx, "k", func(ctx context.Context) (any, error) {
				close(entered)
				<-ctx.Done()
				return "partial", ctx.Err()
			})
		}()
		<-entered
		tr := telemetry.NewTrace("waiter")
		var got any
		var adopted bool
		var waiterErr error
		go func() {
			defer wg.Done()
			got, adopted, waiterErr = dm.do(tr.Context(context.Background()), "k", func(context.Context) (any, error) {
				return "complete", nil
			})
		}()
		waitFor(t, tr)
		cancel()
		wg.Wait()
		if !errors.Is(leaderErr, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", leaderErr)
		}
		if waiterErr != nil || got != "complete" || adopted {
			t.Errorf("waiter got %v (adopted=%v, err=%v), want its own recomputation", got, adopted, waiterErr)
		}
		if v, adopted, err := dm.do(context.Background(), "k", func(context.Context) (any, error) {
			t.Error("a completed distribution was computed again")
			return nil, nil
		}); v != "complete" || !adopted || err != nil {
			t.Errorf("lookup after the recomputation: v=%v adopted=%v err=%v", v, adopted, err)
		}
	})

	t.Run("waiter is bound to its own context", func(t *testing.T) {
		dm := new(distMemo)
		entered, release := make(chan struct{}), make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _, _ = dm.do(context.Background(), "k", func(context.Context) (any, error) {
				close(entered)
				<-release
				return 1, nil
			})
		}()
		<-entered
		tr := telemetry.NewTrace("waiter")
		ctx, cancel := context.WithCancel(tr.Context(context.Background()))
		waited := make(chan error, 1)
		go func() {
			_, _, err := dm.do(ctx, "k", nil)
			waited <- err
		}()
		waitFor(t, tr)
		cancel()
		if err := <-waited; !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter err = %v, want context.Canceled", err)
		}
		close(release)
		<-done
	})

	t.Run("panicking leader vacates the slot", func(t *testing.T) {
		dm := new(distMemo)
		ctx := context.Background()
		entered, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer func() {
				if recover() == nil {
					t.Error("the leader's panic was swallowed")
				}
			}()
			_, _, _ = dm.do(ctx, "k", func(context.Context) (any, error) {
				close(entered)
				<-release
				panic("boom")
			})
		}()
		<-entered
		tr := telemetry.NewTrace("waiter")
		var waiterErr error
		go func() {
			defer wg.Done()
			_, _, waiterErr = dm.do(tr.Context(ctx), "k", func(context.Context) (any, error) {
				t.Error("the waiter ran the scan while the leader held the entry")
				return nil, nil
			})
		}()
		waitFor(t, tr)
		close(release)
		wg.Wait() // a poisoned entry would hang here
		if !errors.Is(waiterErr, cache.ErrLeaderPanicked) {
			t.Fatalf("waiter err = %v, want ErrLeaderPanicked", waiterErr)
		}
		v, adopted, err := dm.do(ctx, "k", func(context.Context) (any, error) { return 7, nil })
		if v != 7 || adopted || err != nil {
			t.Fatalf("call after the panic: v=%v adopted=%v err=%v", v, adopted, err)
		}
	})
}
