package profile

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// The disabled path — no profile in the context — must not allocate:
// the instrumentation sites run on every kernel call of every request.
func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		p := FromContext(ctx)
		p.AddKernelScan(true, 16, 1024)
		p.AddSegments(2, 6, 0)
		p.AddFulltextProbe(128)
		p.AddSharedScan()
		p.AddAnneal(500)
		p.AddCandidates(12)
		p.SetCacheOutcome("miss")
		p.Finish(200, DispositionOK, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates: %.1f allocs/op", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var p *P
	p.SetDB("x")
	p.SetQuery("x")
	p.SetQueueWait(time.Second)
	p.SetStages(map[string]time.Duration{"rank": time.Millisecond})
	if p.Snapshot() != nil {
		t.Error("nil profile snapshot should be nil")
	}
	if p.ID() != "" {
		t.Error("nil profile ID should be empty")
	}
	var ev *Event
	if !strings.Contains(ev.Render(), "no profile") {
		t.Error("nil event render")
	}
}

// Concurrent adds (the facet scorer fans out under one request) must be
// race-free and lossless.
func TestConcurrentAdds(t *testing.T) {
	p := New("explore", "r1")
	ctx := NewContext(context.Background(), p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := FromContext(ctx)
			for i := 0; i < 100; i++ {
				q.AddKernelScan(true, 16, 10)
				q.AddSegments(1, 1, 1)
				q.AddSharedScan()
			}
		}()
	}
	wg.Wait()
	ev := p.Snapshot()
	if ev.ParallelScans != 800 || ev.KernelStripes != 800*16 || ev.RowsScanned != 8000 {
		t.Errorf("lost kernel adds: %+v", ev)
	}
	if ev.SegmentsScanned != 800 || ev.SharedScans != 800 {
		t.Errorf("lost segment/shared adds: %+v", ev)
	}
	if !ev.InFlight {
		t.Error("unfinished profile should snapshot as in-flight")
	}
}

func TestRecorderRingsAndViews(t *testing.T) {
	var completed []*Event
	rec := NewRecorder(4, 2, 2, 10*time.Millisecond, func(ev *Event) {
		completed = append(completed, ev)
	})

	// A fast ok request: recent only.
	p := rec.Start("/api/query", "")
	if p.ID() == "" {
		t.Error("empty request id not generated")
	}
	p.SetDB("ebiz")
	rec.Complete(p, 200, DispositionOK, nil)

	// A slow one (backdated start): recent + slow.
	p = rec.Start("/api/explore", "client-7")
	p.start = p.start.Add(-50 * time.Millisecond)
	p.SetDB("online")
	rec.Complete(p, 200, DispositionOK, nil)

	// An errored one: recent + errored.
	p = rec.Start("/api/query", "")
	rec.Complete(p, 504, DispositionDeadline, errors.New("deadline exceeded"))

	if got := len(rec.Recent()); got != 3 {
		t.Errorf("recent = %d, want 3", got)
	}
	slow := rec.Slow()
	if len(slow) != 1 || slow[0].ID != "client-7" {
		t.Errorf("slow view wrong: %+v", slow)
	}
	errv := rec.Errored()
	if len(errv) != 1 || errv[0].Disposition != DispositionDeadline || errv[0].Error == "" {
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
		rec.Complete(rec.Start("/api/query", ""), 200, DispositionOK, nil)
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
	p1 := rec.Start("/api/query", "a")
	p1.start = p1.start.Add(-time.Minute)
	p2 := rec.Start("/api/explore", "b")
	inf := rec.InFlight()
	if len(inf) != 2 || inf[0].ID != "a" {
		t.Fatalf("in-flight should list oldest first: %+v", inf)
	}
	if !inf[0].InFlight || inf[0].DurationUS < time.Minute.Microseconds() {
		t.Errorf("live event should carry elapsed duration: %+v", inf[0])
	}
	rec.Complete(p1, 200, DispositionOK, nil)
	rec.Complete(p2, 200, DispositionOK, nil)
	if len(rec.InFlight()) != 0 {
		t.Error("in-flight not empty after completion")
	}
}

func TestFilter(t *testing.T) {
	evs := []*Event{
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

func TestSnapshotAndRender(t *testing.T) {
	p := New("query", "req-9")
	p.SetDB("ebiz")
	p.SetQuery("nut bmx 2003")
	p.SetCacheOutcome("miss")
	p.SetQueueWait(250 * time.Microsecond)
	p.AddSharedScan()
	p.AddSegments(8, 56, 0)
	p.AddKernelScan(true, 16, 60000)
	p.AddKernelScan(false, 0, 100)
	p.AddFulltextProbe(1840)
	p.AddAnneal(500)
	p.AddCandidates(12)
	p.SetStages(map[string]time.Duration{
		"rank":      1200 * time.Microsecond,
		"hit_probe": 3 * time.Millisecond,
	})
	p.Finish(200, DispositionOK, nil)
	p.Finish(500, DispositionError, errors.New("late")) // idempotent: ignored

	ev := p.Snapshot()
	if ev.Status != 200 || ev.Disposition != DispositionOK || ev.Error != "" {
		t.Errorf("Finish not idempotent: %+v", ev)
	}
	if ev.Stages[0].Name != "hit_probe" {
		t.Errorf("stages not sorted by duration: %+v", ev.Stages)
	}
	if _, err := json.Marshal(ev); err != nil {
		t.Fatal(err)
	}

	out := ev.Render()
	for _, want := range []string{
		"query [req-9] db=ebiz",
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
