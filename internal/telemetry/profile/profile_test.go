package profile

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kdap/internal/telemetry"
)

// With no trace attached, the recording sites the wide event is folded
// from — Count on every fact, the trace lookup, the cache outcome and
// Finish — must not allocate: they run on every kernel call.
func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		for f := telemetry.Fact(0); f < telemetry.NumFacts; f++ {
			telemetry.Count(ctx, f, 1)
		}
		tr := telemetry.FromContext(ctx)
		tr.Add(telemetry.SegmentsScanned, 2)
		tr.SetCache("miss")
		tr.Finish(200, telemetry.DispositionOK, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates: %.1f allocs/op", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *telemetry.Trace
	tr.Add(telemetry.SharedScans, 1)
	tr.SetCache("miss")
	telemetry.Count(context.Background(), telemetry.Candidates, 3)
	var ev *telemetry.Event
	if !strings.Contains(ev.Render(), "no profile") {
		t.Error("nil event render")
	}
	if got := Filter(nil, "", "", 0); len(got) != 0 {
		t.Errorf("filter of nothing: %v", got)
	}
}

// Concurrent counts (the facet scorer fans out under one request) must
// be race-free and lossless, and the recorder's in-flight view folds
// them from the live trace.
func TestConcurrentAdds(t *testing.T) {
	rec := NewRecorder(4, 2, 2, time.Second, nil)
	tr := rec.Start("/api/explore", "explore", "r1")
	ctx := tr.Context(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, sp := telemetry.StartSpan(ctx, "score_attr")
			defer sp.End()
			for i := 0; i < 100; i++ {
				telemetry.Count(sctx, telemetry.ParallelScans, 1)
				telemetry.Count(sctx, telemetry.KernelStripes, 16)
				telemetry.Count(sctx, telemetry.RowsScanned, 10)
				telemetry.Count(sctx, telemetry.SegmentsScanned, 1)
				telemetry.Count(sctx, telemetry.SharedScans, 1)
			}
		}()
	}
	wg.Wait()
	inf := rec.InFlight()
	if len(inf) != 1 {
		t.Fatalf("in-flight = %d events, want 1", len(inf))
	}
	ev := inf[0]
	if ev.ParallelScans != 800 || ev.KernelStripes != 800*16 || ev.RowsScanned != 8000 {
		t.Errorf("lost kernel adds: %+v", ev)
	}
	if ev.SegmentsScanned != 800 || ev.SharedScans != 800 {
		t.Errorf("lost segment/shared adds: %+v", ev)
	}
	if !ev.InFlight {
		t.Error("unfinished trace should fold as in-flight")
	}
}

func TestRecorderRingsAndViews(t *testing.T) {
	var completed []*telemetry.Event
	rec := NewRecorder(4, 2, 2, 10*time.Millisecond, func(ev *telemetry.Event) {
		completed = append(completed, ev)
	})

	// A fast ok request: recent only.
	tr := rec.Start("/api/query", "query", "")
	if tr.ID() == "" {
		t.Error("empty request id not generated")
	}
	tr.Describe("ebiz", "")
	rec.Complete(tr, 200, telemetry.DispositionOK, nil)

	// A slow one: recent + slow.
	tr = rec.Start("/api/explore", "explore", "client-7")
	tr.Describe("online", "")
	time.Sleep(15 * time.Millisecond)
	rec.Complete(tr, 200, telemetry.DispositionOK, nil)

	// An errored one: recent + errored.
	tr = rec.Start("/api/query", "query", "")
	rec.Complete(tr, 504, telemetry.DispositionDeadline, errors.New("deadline exceeded"))

	if got := len(rec.Recent()); got != 3 {
		t.Errorf("recent = %d, want 3", got)
	}
	slow := rec.Slow()
	if len(slow) != 1 || slow[0].ID != "client-7" {
		t.Errorf("slow view wrong: %+v", slow)
	}
	errv := rec.Errored()
	if len(errv) != 1 || errv[0].Disposition != telemetry.DispositionDeadline || errv[0].Error == "" {
		t.Errorf("errored view wrong: %+v", errv)
	}
	if len(rec.InFlight()) != 0 {
		t.Error("in-flight table not drained")
	}
	if len(completed) != 3 {
		t.Errorf("completion hook fired %d times, want 3", len(completed))
	}

	// Newest first, ring wraps at capacity 4.
	for i := 0; i < 4; i++ {
		rec.Complete(rec.Start("/api/query", "query", ""), 200, telemetry.DispositionOK, nil)
	}
	recent := rec.Recent()
	if len(recent) != 4 {
		t.Errorf("ring should cap at 4, got %d", len(recent))
	}
	for _, ev := range recent {
		if ev.Route != "/api/query" {
			t.Errorf("oldest events not evicted: %+v", ev)
		}
	}
}

func TestRecorderInFlight(t *testing.T) {
	rec := NewRecorder(4, 2, 2, time.Second, nil)
	t1 := rec.Start("/api/query", "query", "a")
	time.Sleep(2 * time.Millisecond)
	t2 := rec.Start("/api/explore", "explore", "b")
	inf := rec.InFlight()
	if len(inf) != 2 || inf[0].ID != "a" {
		t.Fatalf("in-flight should list oldest first: %+v", inf)
	}
	if !inf[0].InFlight || inf[0].DurationUS < 2000 {
		t.Errorf("live event should carry elapsed duration: %+v", inf[0])
	}
	rec.Complete(t1, 200, telemetry.DispositionOK, nil)
	rec.Complete(t2, 200, telemetry.DispositionOK, nil)
	if len(rec.InFlight()) != 0 {
		t.Error("in-flight not empty after completion")
	}
}

func TestFilter(t *testing.T) {
	evs := []*telemetry.Event{
		{Route: "/api/query", DB: "ebiz", DurationUS: 100},
		{Route: "/api/explore", DB: "ebiz", DurationUS: 5000},
		{Route: "/api/query", DB: "online", DurationUS: 20000},
	}
	if got := Filter(evs, "/api/query", "", 0); len(got) != 2 {
		t.Errorf("route filter: %d", len(got))
	}
	if got := Filter(evs, "", "ebiz", 0); len(got) != 2 {
		t.Errorf("db filter: %d", len(got))
	}
	if got := Filter(evs, "", "", time.Millisecond); len(got) != 2 {
		t.Errorf("minDur filter: %d", len(got))
	}
	if got := Filter(evs, "/api/query", "online", 10*time.Millisecond); len(got) != 1 {
		t.Errorf("combined filter: %d", len(got))
	}
}

// A completed request's event is its trace folded: identity copied,
// counts read, stages summed and sorted by duration.
func TestSnapshotAndRender(t *testing.T) {
	rec := NewRecorder(4, 2, 2, time.Second, nil)
	tr := rec.Start("/api/query", "query", "req-9")
	tr.Describe("ebiz", "nut bmx 2003")
	tr.SetCache("miss")
	tr.Root().AddTimed("queue_wait", 250*time.Microsecond)
	tr.Root().AddTimed("rank", 1200*time.Microsecond)
	tr.Root().AddTimed("hit_probe", 3*time.Millisecond)
	for f, n := range map[telemetry.Fact]int{
		telemetry.SharedScans: 1, telemetry.SegmentsScanned: 8, telemetry.SegmentsSkippedZone: 56,
		telemetry.ParallelScans: 1, telemetry.SerialScans: 1, telemetry.KernelStripes: 16,
		telemetry.RowsScanned: 60100, telemetry.FulltextProbes: 1, telemetry.FulltextPostings: 1840,
		telemetry.AnnealRuns: 1, telemetry.AnnealIters: 500, telemetry.Candidates: 12,
	} {
		tr.Add(f, n)
	}
	tr.Finish(200, telemetry.DispositionOK, nil)
	ev := rec.Complete(tr, 500, telemetry.DispositionError, errors.New("late")) // first Finish wins

	if ev.Status != 200 || ev.Disposition != telemetry.DispositionOK || ev.Error != "" || ev.InFlight {
		t.Errorf("Finish not first-call-wins: %+v", ev)
	}
	if ev.Stages[0].Name != "hit_probe" {
		t.Errorf("stages not sorted by duration: %+v", ev.Stages)
	}
	if _, err := json.Marshal(ev); err != nil {
		t.Fatal(err)
	}

	out := ev.Render()
	for _, want := range []string{
		"/api/query [req-9] db=ebiz",
		"cache=miss",
		`query: "nut bmx 2003"`,
		"queue_wait: 250µs",
		"distributions: adopted=1",
		"segments: scanned=8 skipped_zone=56 skipped_bits=0",
		"kernels: serial=1 striped=1 stripes=16 rows=60100",
		"fulltext: probes=1 postings=1840",
		"anneal: runs=1 iters=500",
		"candidates: 12",
		"hit_probe",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
