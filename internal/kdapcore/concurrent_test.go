package kdapcore

import (
	"context"
	"math"
	"sync"
	"testing"

	"kdap/internal/fulltext"
)

// Many goroutines exploring through one shared Engine/Executor must
// produce identical facets with no data races: this guards the
// executor's RWMutex-protected memos, the fact-aligned code-vector
// cache, and the clock caches. Run under go test -race.
func TestConcurrentExplore(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if err != nil || len(nets) < 2 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	opts := DefaultExploreOptions()
	opts.TopKAttrs = 2
	opts.AnnealIters = 50
	popts := opts
	popts.Parallel = true // fan out inside Explore too

	want, err := e.ExploreCtx(context.Background(), nets[0], opts)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Alternate interpretations and parallel modes so cold and
			// warm cache paths interleave.
			sn := nets[g%len(nets)]
			o := opts
			if g%2 == 1 {
				o = popts
			}
			f, err := e.ExploreCtx(context.Background(), sn, o)
			if err != nil {
				errs <- err
				return
			}
			if sn != nets[0] {
				return
			}
			// Same net must yield the same facets regardless of what
			// else is running.
			if f.SubspaceSize != want.SubspaceSize ||
				math.Abs(f.TotalAggregate-want.TotalAggregate) > 1e-9 ||
				len(f.Dimensions) != len(want.Dimensions) {
				t.Errorf("goroutine %d: facets diverged: size %d/%d agg %g/%g dims %d/%d",
					g, f.SubspaceSize, want.SubspaceSize, f.TotalAggregate, want.TotalAggregate,
					len(f.Dimensions), len(want.Dimensions))
				return
			}
			for di := range f.Dimensions {
				a, b := f.Dimensions[di], want.Dimensions[di]
				if a.Dimension != b.Dimension || len(a.Attributes) != len(b.Attributes) {
					t.Errorf("goroutine %d: dimension %d diverged", g, di)
					return
				}
				for ai := range a.Attributes {
					x, y := a.Attributes[ai], b.Attributes[ai]
					if x.Attr != y.Attr || x.Score != y.Score || len(x.Instances) != len(y.Instances) {
						t.Errorf("goroutine %d: facet %s diverged from %s", g, x.Attr, y.Attr)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// SetTextSimilarity is documented safe to call while queries are in
// flight: writers flip the relevance model while readers run the full
// differentiate pipeline. Run under go test -race — the old plain-field
// write was a data race against buildHitSets.
func TestConcurrentSetTextSimilarity(t *testing.T) {
	e := ebizEngine()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		sims := []fulltext.Similarity{fulltext.BM25, fulltext.ClassicTFIDF}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.SetTextSimilarity(sims[i%len(sims)])
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
				if err != nil {
					t.Errorf("differentiate: %v", err)
					return
				}
				if len(nets) == 0 {
					t.Error("no nets")
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
}

// Concurrent SubspaceRowsCtx on distinct nets churns the clock-evicting
// subspace cache; results must stay correct throughout.
func TestConcurrentSubspaceRows(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatal("no nets")
	}
	want := make([][]int, len(nets))
	for i, sn := range nets {
		want[i] = subspaceRows(t, e, sn)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ni := (g + i) % len(nets)
				rows, err := e.SubspaceRowsCtx(context.Background(), nets[ni])
				if err != nil || len(rows) != len(want[ni]) {
					t.Errorf("net %d: %d rows (%v), want %d", ni, len(rows), err, len(want[ni]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
