package kdapcore

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/relation"
	"kdap/internal/telemetry/profile"
)

// cachedEbizEngine is ebizEngine with the answer cache on.
func cachedEbizEngine() *Engine {
	e := ebizEngine()
	e.SetAnswerCache(64, 0)
	return e
}

// differentiateOutcome runs DifferentiateCtx under a fresh wide event
// and returns the cache outcome the engine recorded on it.
func differentiateOutcome(ctx context.Context, e *Engine, query string) ([]*StarNet, string, error) {
	p := profile.New("query", "")
	nets, err := e.DifferentiateCtx(profile.NewContext(ctx, p), query)
	return nets, p.CacheOutcome(), err
}

// exploreOutcome is differentiateOutcome for ExploreCtx.
func exploreOutcome(ctx context.Context, e *Engine, sn *StarNet, opts ExploreOptions) (*Facets, string, error) {
	p := profile.New("explore", "")
	f, err := e.ExploreCtx(profile.NewContext(ctx, p), sn, opts)
	return f, p.CacheOutcome(), err
}

// TestAnswerCacheDifferentiateStorm is the engine-level coalescing
// proof: N concurrent identical differentiate calls perform the
// pipeline exactly once — one miss, everyone else served by the
// store or the in-flight computation, all with the same answer.
func TestAnswerCacheDifferentiateStorm(t *testing.T) {
	const n = 16
	e := cachedEbizEngine()

	start := make(chan struct{})
	var wg sync.WaitGroup
	var misses, served atomic.Int32
	results := make([][]*StarNet, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			nets, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD")
			if err != nil || len(nets) == 0 {
				t.Errorf("goroutine %d: nets=%d err=%v", i, len(nets), err)
				return
			}
			results[i] = nets
			switch outcome {
			case cacheMiss:
				misses.Add(1)
			case cacheHit, cacheCoalesced:
				served.Add(1)
			default:
				t.Errorf("goroutine %d: unexpected outcome %v", i, outcome)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if misses.Load() != 1 {
		t.Fatalf("pipeline ran %d times, want exactly 1", misses.Load())
	}
	if served.Load() != n-1 {
		t.Fatalf("served from cache/in-flight: %d, want %d", served.Load(), n-1)
	}
	for i := 1; i < n; i++ {
		if &results[i][0] != &results[0][0] {
			// All callers share the one computed slice — not copies.
			t.Fatalf("goroutine %d received a different answer object", i)
		}
	}
}

// TestAnswerCacheCanonicalization: whitespace-variant spellings of the
// same query share one cache entry.
func TestAnswerCacheCanonicalization(t *testing.T) {
	e := cachedEbizEngine()
	nets1, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD")
	if err != nil || outcome != cacheMiss {
		t.Fatalf("cold: outcome=%v err=%v", outcome, err)
	}
	nets2, outcome, err := differentiateOutcome(context.Background(), e, "  Columbus \t LCD ")
	if err != nil || outcome != cacheHit {
		t.Fatalf("whitespace variant: outcome=%v err=%v, want hit", outcome, err)
	}
	if &nets1[0] != &nets2[0] {
		t.Fatal("variant spelling did not share the cached answer")
	}
	if got := CanonicalQuery(" a \t b\nc "); got != "a b c" {
		t.Fatalf("CanonicalQuery = %q", got)
	}
}

// TestAnswerCacheInvalidation: an append retires every cached explore
// answer — counted as evicted, gone from the store's gauges — and
// advances the ingest sequence that ETags embed, while the
// differentiate answer survives a batch that adds no full-text term and
// is counted as kept.
func TestAnswerCacheInvalidation(t *testing.T) {
	e := ingestTestEngine(dataset.EBiz())
	e.SetAnswerCache(64, 0)
	ctx := context.Background()
	nets, outcome, err := differentiateOutcome(ctx, e, "Columbus LCD")
	if err != nil || outcome != cacheMiss || len(nets) < 2 {
		t.Fatalf("cold: outcome=%v nets=%d err=%v", outcome, len(nets), err)
	}
	for _, sn := range nets[:2] {
		if _, outcome, err := exploreOutcome(ctx, e, sn, DefaultExploreOptions()); err != nil || outcome != cacheMiss {
			t.Fatalf("cold explore: outcome=%v err=%v", outcome, err)
		}
	}
	seq := e.IngestSeq()
	row := []relation.Value{relation.Int(int64(dataset.EBizFactCount + 1)),
		relation.Int(1), relation.Int(20), relation.Int(3), relation.Float(9.99)}
	res, err := e.AppendFacts(ctx, [][]relation.Value{row})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvictedExplore != 2 || res.EvictedDiff != 0 || res.Kept != 1 {
		t.Fatalf("append: evicted %d explore + %d differentiate, kept %d; want 2, 0, 1",
			res.EvictedExplore, res.EvictedDiff, res.Kept)
	}
	if e.IngestSeq() != seq+1 {
		t.Fatalf("IngestSeq = %d, want %d", e.IngestSeq(), seq+1)
	}
	diff, expl, _ := e.AnswerCacheStats()
	if expl.Len != 0 || expl.Bytes != 0 || expl.Evictions != 2 {
		t.Fatalf("explore store after append: len=%d bytes=%d evictions=%d, want 0/0/2", expl.Len, expl.Bytes, expl.Evictions)
	}
	if diff.Len != 1 || diff.Evictions != 0 {
		t.Fatalf("differentiate store after append: len=%d evictions=%d, want 1/0", diff.Len, diff.Evictions)
	}
	if _, outcome, _ := differentiateOutcome(ctx, e, "Columbus LCD"); outcome != cacheHit {
		t.Fatalf("post-append differentiate: outcome=%v, want hit", outcome)
	}
}

// TestAnswerCacheExploreHit: a repeated explore is a cacheHit whose
// facets match the fresh computation exactly, rebound to the caller's
// own net.
func TestAnswerCacheExploreHit(t *testing.T) {
	e := cachedEbizEngine()
	ctx := context.Background()
	nets, _, err := differentiateOutcome(ctx, e, "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	opts := DefaultExploreOptions()

	cold, outcome, err := exploreOutcome(ctx, e, nets[0], opts)
	if err != nil || outcome != cacheMiss {
		t.Fatalf("cold explore: outcome=%v err=%v", outcome, err)
	}
	warm, outcome, err := exploreOutcome(ctx, e, nets[0], opts)
	if err != nil || outcome != cacheHit {
		t.Fatalf("warm explore: outcome=%v err=%v", outcome, err)
	}
	if warm.Net != nets[0] {
		t.Fatal("cached facets not rebound to the caller's net")
	}
	if warm.SubspaceSize != cold.SubspaceSize || warm.TotalAggregate != cold.TotalAggregate {
		t.Fatalf("warm aggregates differ: %d/%g vs %d/%g",
			warm.SubspaceSize, warm.TotalAggregate, cold.SubspaceSize, cold.TotalAggregate)
	}
	if !reflect.DeepEqual(warm.Dimensions, cold.Dimensions) {
		t.Fatal("warm facet tree differs from cold computation")
	}

	// Option changes that shape the result are distinct cache entries.
	opts2 := opts
	opts2.Mode = Bellwether
	if _, outcome, err := exploreOutcome(ctx, e, nets[0], opts2); err != nil || outcome != cacheMiss {
		t.Fatalf("mode change: outcome=%v err=%v, want miss", outcome, err)
	}
}

// TestAnswerCacheCustomScoreBypass: a CustomScore func has no canonical
// identity, so those explores bypass the cache entirely — and never
// pollute it for canonical callers.
func TestAnswerCacheCustomScoreBypass(t *testing.T) {
	e := cachedEbizEngine()
	ctx := context.Background()
	nets, _, err := differentiateOutcome(ctx, e, "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	opts := DefaultExploreOptions()
	opts.CustomScore = func(corr float64) float64 { return -corr }
	if _, ok := ExploreCacheKey(nets[0], opts); ok {
		t.Fatal("CustomScore options produced a cache key")
	}
	for i := 0; i < 2; i++ {
		if _, outcome, err := exploreOutcome(ctx, e, nets[0], opts); err != nil || outcome != cacheBypass {
			t.Fatalf("custom-score explore %d: outcome=%v err=%v, want bypass", i, outcome, err)
		}
	}
	if _, expl, ok := e.AnswerCacheStats(); !ok || expl.Len != 0 {
		t.Fatalf("bypassed explore left %d cache entries", expl.Len)
	}
}

// TestAnswerCacheDisabled: without SetAnswerCache every call is a
// bypass and stats report not-ok.
func TestAnswerCacheDisabled(t *testing.T) {
	e := ebizEngine()
	if _, _, ok := e.AnswerCacheStats(); ok {
		t.Fatal("stats ok without a cache")
	}
	if _, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD"); err != nil || outcome != cacheBypass {
		t.Fatalf("uncached differentiate: outcome=%v err=%v", outcome, err)
	}
}

// TestAnswerCacheCancelledNotCached carries PR 3's rule through the
// cached path: a cancelled differentiate leaves no entry behind.
func TestAnswerCacheCancelledNotCached(t *testing.T) {
	e := cachedEbizEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := differentiateOutcome(ctx, e, "Columbus LCD"); err == nil {
		t.Fatal("cancelled differentiate succeeded")
	}
	diff, _, ok := e.AnswerCacheStats()
	if !ok || diff.Len != 0 {
		t.Fatalf("cancelled computation left %d cached entries", diff.Len)
	}
	// And the next caller computes fresh, successfully.
	if nets, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD"); err != nil || outcome != cacheMiss || len(nets) == 0 {
		t.Fatalf("retry after cancel: nets=%d outcome=%v err=%v", len(nets), outcome, err)
	}
}

// TestAnswerCacheTTL: entries expire; a TTL of an hour keeps them.
func TestAnswerCacheTTL(t *testing.T) {
	e := ebizEngine()
	e.SetAnswerCache(16, time.Hour)
	ctx := context.Background()
	if _, outcome, err := differentiateOutcome(ctx, e, "Columbus LCD"); err != nil || outcome != cacheMiss {
		t.Fatalf("cold: outcome=%v err=%v", outcome, err)
	}
	if _, outcome, _ := differentiateOutcome(ctx, e, "Columbus LCD"); outcome != cacheHit {
		t.Fatalf("within TTL: outcome=%v, want hit", outcome)
	}
}
