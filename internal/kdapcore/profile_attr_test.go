package kdapcore

import (
	"context"
	"testing"
	"time"

	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// Requests that share one computation are batched by the answer cache:
// a request coalesced onto a peer's in-flight fill waits for work that
// runs in the peer's goroutine. That wait must show in the follower's
// own stage waterfall as answer_shared, or its span tree holds nothing
// but cache_lookup. The leader here is a fill that blocks on a channel,
// so the follower is deterministically a waiter when the fill completes.
func TestBatchedFollowerAttribution(t *testing.T) {
	e := ebizEngine()
	e.SetAnswerCache(16, 0)
	const query = "Columbus LCD"
	nets, err := e.differentiateRanked(context.Background(), query, Standard)
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	opts := DefaultExploreOptions()
	facets, err := e.exploreUncached(context.Background(), nets[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	exploreKey, _ := ExploreCacheKey(nets[0], opts)

	for _, tc := range []struct {
		name    string
		lead    func(release <-chan struct{}, started chan<- struct{})
		waiting func() int
		follow  func(ctx context.Context) (string, error)
	}{
		{
			name: "explore",
			lead: func(release <-chan struct{}, started chan<- struct{}) {
				e.explAnswers.Compute(context.Background(), exploreKey, func(context.Context) (*Facets, bool, error) {
					close(started)
					<-release
					return facets, false, nil
				})
			},
			waiting: func() int { return e.explAnswers.Waiting(exploreKey) },
			follow: func(ctx context.Context) (string, error) {
				_, oc, err := exploreOutcome(ctx, e, nets[0], opts)
				return oc, err
			},
		},
		{
			name: "differentiate",
			lead: func(release <-chan struct{}, started chan<- struct{}) {
				e.diffAnswers.Compute(context.Background(), diffAnswerKey(query, Standard), func(context.Context) ([]*StarNet, bool, error) {
					close(started)
					<-release
					return nets, false, nil
				})
			},
			waiting: func() int { return e.diffAnswers.Waiting(diffAnswerKey(query, Standard)) },
			follow: func(ctx context.Context) (string, error) {
				_, oc, err := differentiateOutcome(ctx, e, query)
				return oc, err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			release, started, leaderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(leaderDone)
				tc.lead(release, started)
			}()
			<-started

			type result struct {
				oc     string
				stages map[string]time.Duration
				err    error
			}
			done := make(chan result, 1)
			go func() {
				tr := telemetry.NewTrace(tc.name)
				oc, err := tc.follow(tr.Context(context.Background()))
				tr.Finish()
				done <- result{oc, tr.Stages(), err}
			}()
			deadline := time.Now().Add(5 * time.Second)
			for tc.waiting() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("follower never joined the in-flight fill")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			<-leaderDone
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.oc != cacheCoalesced {
				t.Fatalf("follower outcome = %v, want coalesced", r.oc)
			}
			if _, ok := r.stages["answer_shared"]; !ok {
				t.Errorf("coalesced follower has no answer_shared stage: %v", r.stages)
			}
		})
	}
}

// A request that computes its own answer (unbatched: no peer fill to
// join) must carry no evidence of sharing — a miss outcome and no
// answer_shared stage — while its wide event still records the kernel
// scans it ran. Adopted distributions are not sharing evidence: a solo
// request looks them up on its spaces like any other.
func TestUnbatchedProfileHasNoBatchFields(t *testing.T) {
	e := ebizEngine()
	e.SetAnswerCache(16, 0)
	const query = "Columbus LCD"
	for _, tc := range []struct {
		name   string
		follow func(ctx context.Context) error
	}{
		{
			name: "differentiate",
			follow: func(ctx context.Context) error {
				_, err := e.DifferentiateCtx(ctx, query)
				return err
			},
		},
		{
			name: "explore",
			follow: func(ctx context.Context) error {
				nets, err := e.DifferentiateCtx(context.Background(), query)
				if err != nil || len(nets) == 0 {
					t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
				}
				_, err = e.ExploreCtx(ctx, nets[0], DefaultExploreOptions())
				return err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := profile.New(tc.name, "")
			tr := telemetry.NewTrace(tc.name)
			ctx := profile.NewContext(tr.Context(context.Background()), p)
			err := tc.follow(ctx)
			tr.Finish()
			if err != nil {
				t.Fatal(err)
			}
			p.SetStages(tr.Stages())
			p.Finish(0, profile.DispositionOK, nil)
			ev := p.Snapshot()
			if ev.Cache != cacheMiss {
				t.Fatalf("solo outcome = %q, want miss", ev.Cache)
			}
			if _, ok := tr.Stages()["answer_shared"]; ok {
				t.Errorf("solo request carries an answer_shared stage: %v", tr.Stages())
			}
			if tc.name == "explore" && ev.SerialScans+ev.ParallelScans == 0 {
				t.Errorf("solo explore recorded no kernel scans: %+v", ev)
			}
		})
	}
}
