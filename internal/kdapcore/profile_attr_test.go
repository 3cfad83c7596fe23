package kdapcore

import (
	"context"
	"testing"

	"kdap/internal/telemetry"
)

// A request computes its own answer — there is no peer fill to join —
// so a cold one records a miss, and its wide event records the kernel
// scans it ran. Adopted distributions are lookups on the request's own
// spaces, not another request's work.
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
			tr := telemetry.NewTrace(tc.name)
			err := tc.follow(tr.Context(context.Background()))
			tr.Finish(0, telemetry.DispositionOK, nil)
			if err != nil {
				t.Fatal(err)
			}
			ev := tr.Event()
			if ev.Cache != cacheMiss {
				t.Fatalf("solo outcome = %q, want miss", ev.Cache)
			}
			if tc.name == "explore" && ev.SerialScans+ev.ParallelScans == 0 {
				t.Errorf("solo explore recorded no kernel scans: %+v", ev)
			}
		})
	}
}
