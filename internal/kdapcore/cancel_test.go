package kdapcore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/olap"
	"kdap/internal/schemagraph"
)

// awOnlineEngine builds the engine the paper's §6 experiments run on:
// AW_ONLINE with SUM(UnitPrice × OrderQuantity), >60k fact rows — large
// enough that an uncancelled explore does real work.
func awOnlineEngine() *Engine {
	wh := dataset.AWOnline()
	fact := wh.DB.Table(wh.Graph.FactTable())
	m := olap.ProductMeasure(fact, "SalesRevenue", "UnitPrice", "OrderQuantity")
	return NewEngine(wh.Graph, wh.Index, m, olap.Sum)
}

// TestCancelMidExplore is the end-to-end cancellation check of the
// request-lifecycle refactor: cancelling mid-explore on AW_ONLINE must
// return context.Canceled well under the uncancelled latency. The
// explore is inflated (many anneal iterations, fine buckets) so that
// uncancelled it runs for a long time; the cancelled run must come back
// orders of magnitude sooner.
func TestCancelMidExplore(t *testing.T) {
	e := awOnlineEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "California Mountain Bikes")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	sn := nets[0]

	opts := DefaultExploreOptions()
	opts.Parallel = true
	opts.AnnealIters = 50_000_000 // uncancelled: many seconds of annealing
	opts.Buckets = 500

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = e.ExploreCtx(ctx, sn, opts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("explore after cancel: err=%v (elapsed %v)", err, elapsed)
	}
	// The bound is deliberately generous for slow CI machines but still
	// far under the inflated uncancelled run time.
	if elapsed > 3*time.Second {
		t.Errorf("cancelled explore took %v; cancellation is not propagating", elapsed)
	}
}

// TestCancelMidDifferentiate covers the first pipeline phase: a context
// cancelled before the call returns context.Canceled from the hit-probe
// layer rather than running the full probe fan-out.
func TestCancelMidDifferentiate(t *testing.T) {
	e := awOnlineEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.DifferentiateCtx(ctx, "California Mountain Bikes"); !errors.Is(err, context.Canceled) {
		t.Fatalf("differentiate on cancelled ctx: err=%v", err)
	}
}

// TestConcurrentExploreCancel drives several concurrent explores over
// one shared engine while their contexts are cancelled at staggered
// times — the -race check that cancellation does not tear the engine's
// caches or the parallel scoring fan-out.
func TestConcurrentExploreCancel(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	opts := DefaultExploreOptions()
	opts.Parallel = true

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if i%2 == 0 {
				cancel() // half start cancelled, half cancel mid-flight
			} else {
				go func() {
					time.Sleep(time.Duration(i) * 500 * time.Microsecond)
					cancel()
				}()
			}
			defer cancel()
			sn := nets[i%len(nets)]
			if _, err := e.ExploreCtx(ctx, sn, opts); err != nil &&
				!errors.Is(err, context.Canceled) {
				t.Errorf("explore %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// The engine must still work after the cancellation storm: no
	// partially-cancelled state may have been cached.
	if _, err := e.ExploreCtx(context.Background(), nets[0], opts); err != nil {
		t.Fatalf("explore after cancel storm: %v", err)
	}
}

// TestDiscoverCancel: the batch scan explores one subspace per level
// instance; a cancelled context must end it with the context's error
// rather than skip every instance and report an empty result.
func TestDiscoverCancel(t *testing.T) {
	e := ebizEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := e.Discover(ctx, schemagraph.AttrRef{Table: "PGROUP", Attr: "GroupName"}, "Product", Surprise, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("discover on cancelled ctx: %d results, err=%v", len(out), err)
	}
}

// TestPartialFacetsOnDeadline exercises the opt-in degradation mode:
// when the deadline fires during attribute scoring (forced here by a
// scoring hook that outsleeps the deadline), PartialOnDeadline returns
// the best-so-far facets flagged Partial instead of DeadlineExceeded —
// and without the opt-in the same run fails.
func TestPartialFacetsOnDeadline(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	sn := nets[0]
	// Warm the subspace and rollup inputs so the deadline cannot fire
	// before scoring starts.
	if _, err := e.ExploreCtx(context.Background(), sn, DefaultExploreOptions()); err != nil {
		t.Fatal(err)
	}

	mkOpts := func() ExploreOptions {
		opts := DefaultExploreOptions()
		opts.CustomScore = func(corr float64) float64 {
			time.Sleep(300 * time.Millisecond) // outsleep the deadline below
			return -corr
		}
		return opts
	}

	opts := mkOpts()
	opts.PartialOnDeadline = true
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	f, err := e.ExploreCtx(ctx, sn, opts)
	if err != nil {
		t.Fatalf("partial mode returned error: %v", err)
	}
	if !f.Partial {
		t.Error("facets not flagged Partial after deadline fired during scoring")
	}
	if f.SubspaceSize == 0 || f.TotalAggregate == 0 {
		t.Error("partial facets missing the pre-scoring aggregates")
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel2()
	if _, err := e.ExploreCtx(ctx2, sn, mkOpts()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("without opt-in: err=%v, want DeadlineExceeded", err)
	}
}

// TestSessionTimeout wires the deadline through the Session layer: a
// timeout far too small for any real work must surface as
// DeadlineExceeded from Query.
func TestSessionTimeout(t *testing.T) {
	s := NewSession(ebizEngine(), DefaultExploreOptions())
	s.SetTimeout(time.Nanosecond)
	if _, err := s.Query("Columbus LCD"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query under 1ns timeout: err=%v", err)
	}
	s.SetTimeout(0)
	if _, err := s.Query("Columbus LCD"); err != nil {
		t.Fatalf("query without timeout: %v", err)
	}
}

// TestMergeIntervalsCtxCancel covers the anneal loop's in-flight check.
func TestMergeIntervalsCtxCancel(t *testing.T) {
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(40 - i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultAnnealConfig()
	cfg.N = 1_000_000
	if _, err := MergeIntervalsCtx(ctx, x, y, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("anneal on cancelled ctx: err=%v", err)
	}
	// The Background wrapper still runs to completion.
	res := MergeIntervals(x, y, DefaultAnnealConfig())
	if len(res.Splits) == 0 {
		t.Error("uncancelled merge produced no splits")
	}
}
