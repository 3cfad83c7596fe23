package kdapcore

import (
	"context"
	"sync"
	"testing"
	"time"

	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// Batched followers used to be observability holes: a request whose
// answer came from a batch peer's work finished with an empty span tree
// and no profile evidence of why. This pins the fix — an adopted answer
// shows up as a batch_shared stage and the wide event carries the batch
// membership (leader's batch ID, size, role) instead of omitting it.
func TestBatchedFollowerAttribution(t *testing.T) {
	e := ebizEngine()
	e.SetBatching(50*time.Millisecond, 8)
	nets, err := e.Differentiate("Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	opts := DefaultExploreOptions()

	type result struct {
		ev     *profile.Event
		stages map[string]time.Duration
		err    error
	}
	const n = 8
	res := make([]result, n)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mirror the server's per-request setup: a trace and a wide
			// event on the context.
			p := profile.New("explore", "")
			tr := telemetry.NewTrace("explore")
			ctx := profile.NewContext(tr.Context(context.Background()), p)
			_, _, err := e.ExploreBatchedCtx(ctx, nets[0], opts)
			tr.Finish()
			p.SetStages(tr.Stages())
			p.Finish(0, profile.DispositionOK, nil)
			res[i] = result{p.Snapshot(), tr.Stages(), err}
		}(i)
	}
	wg.Wait()

	followers, sharers := 0, 0
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.ev.BatchID == 0 {
			t.Errorf("request %d joined no batch: %+v", i, r.ev)
		}
		if r.ev.BatchSize < 2 {
			t.Errorf("request %d: batch size %d, want >= 2", i, r.ev.BatchSize)
		}
		switch r.ev.BatchRole {
		case "follower":
			followers++
		case "leader":
		default:
			t.Errorf("request %d: batch role %q, want leader or follower", i, r.ev.BatchRole)
		}
		// Sharing takes two forms, and which one a given request gets is
		// a race it may legitimately lose: adopting a peer's whole
		// answer (role flips to follower), which must be attributed as a
		// batch_shared stage, or adopting individual distributions from
		// the spaces (sharedScans counts them).
		if r.ev.BatchRole == "follower" {
			if _, ok := r.stages["batch_shared"]; !ok {
				t.Errorf("follower %d has no batch_shared stage: %+v %v", i, r.ev, r.stages)
			}
		}
		if r.ev.BatchRole == "follower" || r.ev.SharedScans > 0 {
			sharers++
		}
	}
	// An 8-way identical storm through one batch must share: at least
	// one request adopts a peer's answer or scan.
	if sharers == 0 {
		t.Fatalf("no sharing in an 8-way identical storm: %+v", e.BatchStats())
	}
	if followers == n {
		t.Fatalf("every request claims to be a follower; someone must lead")
	}
}

// A solo (unbatched) engine must leave the batch identity fields zero —
// attribution, not noise. Adopted distributions are not batch evidence:
// a solo request looks them up on its spaces like any other.
func TestUnbatchedProfileHasNoBatchFields(t *testing.T) {
	e := ebizEngine()
	nets, err := e.Differentiate("Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	p := profile.New("explore", "")
	ctx := profile.NewContext(context.Background(), p)
	if _, _, err := e.ExploreBatchedCtx(ctx, nets[0], DefaultExploreOptions()); err != nil {
		t.Fatal(err)
	}
	p.Finish(0, profile.DispositionOK, nil)
	ev := p.Snapshot()
	if ev.BatchID != 0 || ev.BatchSize != 0 || ev.BatchRole != "" {
		t.Errorf("unbatched explore carries batch evidence: %+v", ev)
	}
	if ev.SerialScans+ev.ParallelScans == 0 {
		t.Errorf("unbatched explore recorded no kernel scans: %+v", ev)
	}
}
