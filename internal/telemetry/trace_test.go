package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	tr := NewTrace("query")
	ctx := tr.Context(context.Background())

	dctx, d := StartSpan(ctx, "differentiate")
	_, probe := StartSpan(dctx, "hit_probe")
	time.Sleep(time.Millisecond)
	probe.End()
	_, rank := StartSpan(dctx, "rank")
	rank.End()
	d.End()
	tr.Finish(0, DispositionOK, nil)

	j := tr.JSON()
	if j.Name != "query" || len(j.Children) != 1 {
		t.Fatalf("root: %+v", j)
	}
	diff := j.Children[0]
	if diff.Name != "differentiate" || len(diff.Children) != 2 {
		t.Fatalf("differentiate: %+v", diff)
	}
	if diff.Children[0].Name != "hit_probe" || diff.Children[0].Micros < 500 {
		t.Errorf("hit_probe span: %+v", diff.Children[0])
	}

	stages := tr.Stages()
	for _, name := range []string{"query", "differentiate", "hit_probe", "rank"} {
		if _, ok := stages[name]; !ok {
			t.Errorf("Stages missing %q", name)
		}
	}
	tree := tr.Tree()
	if !strings.Contains(tree, "hit_probe") || !strings.Contains(tree, "differentiate") {
		t.Errorf("tree rendering:\n%s", tree)
	}
}

// With no trace attached — a library caller, a benchmark's engine —
// StartSpan must return a usable nil span and must not allocate: spans
// open on every stage of every request.
func TestStartSpanDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "stage")
		sp.End()
		sp.AddTimed("queue_wait", time.Millisecond)
		_ = c
	})
	if allocs != 0 {
		t.Errorf("disabled StartSpan allocates %v per call", allocs)
	}
	if d := (*Span)(nil).Duration(); d != 0 {
		t.Errorf("nil span duration = %v", d)
	}
}

// A name's text after the first space shows in the tree but sums into
// the stage before it, so the stage set stays closed.
func TestStageNameStopsAtSpace(t *testing.T) {
	tr := NewTrace("explore")
	ctx := tr.Context(context.Background())
	for _, attr := range []string{"DimStore.City", "DimProduct.Yearly Income"} {
		_, sp := StartSpan(ctx, "score "+attr)
		sp.End()
	}
	tr.Finish(0, DispositionOK, nil)
	if st := tr.Stages(); len(st) != 2 || st["score"] == 0 {
		t.Errorf("stages = %v, want explore and one score", st)
	}
	if j := tr.JSON(); len(j.Children) != 2 || j.Children[1].Name != "score DimProduct.Yearly Income" {
		t.Errorf("the tree lost the scored attribute: %+v", j.Children)
	}
}

// Concurrent children under one parent (the facet scorer's fan-out)
// must be race-free.
func TestConcurrentChildSpans(t *testing.T) {
	tr := NewTrace("explore")
	ctx := tr.Context(context.Background())
	sctx, score := StartSpan(ctx, "facet_score")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := StartSpan(sctx, "score_attr")
			sp.End()
		}()
	}
	wg.Wait()
	score.End()
	tr.Finish(0, DispositionOK, nil)
	if n := len(tr.JSON().Children[0].Children); n != 16 {
		t.Errorf("recorded %d child spans, want 16", n)
	}
}
