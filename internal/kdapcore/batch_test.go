package kdapcore

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// The batch storm: many goroutines fire a small, highly duplicated
// query mix (the zipf shape a real workload has) at two batched engines
// over different warehouses at once. Run under -race in CI. Every
// answer must be byte-identical to the solo answer for its query, and
// the duplication must actually surface as whole-request sharing.
func TestBatchedExploreStormFingerprints(t *testing.T) {
	type warehouse struct {
		name    string
		solo    *Engine
		batched *Engine
		queries []string
	}
	whs := []*warehouse{
		{
			name: "ebiz", solo: ebizEngine(), batched: ebizEngine(),
			queries: []string{"Columbus LCD", "projector", "Columbus"},
		},
		{
			name: "online", solo: awOnlineEngine(), batched: awOnlineEngine(),
			queries: []string{"Mountain Bikes", "Helmets", "Jerseys Touring"},
		},
	}
	opts := DefaultExploreOptions()

	type answer struct {
		fp  []byte
		err string
	}
	want := map[string]answer{} // warehouse|query → solo answer
	type testCase struct {
		wh *warehouse
		q  string
	}
	var cases []testCase
	for _, wh := range whs {
		wh.batched.SetBatching(time.Millisecond, 8)
		for _, q := range wh.queries {
			nets, err := wh.solo.Differentiate(q)
			if err != nil {
				t.Fatalf("%s %q: %v", wh.name, q, err)
			}
			if len(nets) == 0 {
				t.Fatalf("%s %q: no interpretations", wh.name, q)
			}
			a := answer{}
			if f, err := wh.solo.Explore(nets[0], opts); err != nil {
				a.err = err.Error()
			} else {
				a.fp = f.Fingerprint()
			}
			want[wh.name+"|"+q] = a
			cases = append(cases, testCase{wh, q})
		}
	}

	// 12 workers × 8 rounds over 6 distinct queries: heavy duplication,
	// interleaved across warehouses, batches forming and flushing
	// concurrently.
	const workers, rounds = 12, 8
	var wg sync.WaitGroup
	fail := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tc := cases[(w*rounds+r)%len(cases)]
				nets, _, err := tc.wh.batched.DifferentiateBatchedCtx(context.Background(), tc.q)
				if err != nil {
					fail <- tc.wh.name + " " + tc.q + ": differentiate: " + err.Error()
					return
				}
				f, _, err := tc.wh.batched.ExploreBatchedCtx(context.Background(), nets[0], opts)
				a := want[tc.wh.name+"|"+tc.q]
				if err != nil {
					if a.err != err.Error() {
						fail <- tc.wh.name + " " + tc.q + ": explore: " + err.Error()
						return
					}
					continue
				}
				if !bytes.Equal(f.Fingerprint(), a.fp) {
					fail <- tc.wh.name + " " + tc.q + ": fingerprint diverged from solo"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	for _, wh := range whs {
		st := wh.batched.BatchStats()
		if st.Batches == 0 {
			t.Errorf("%s: no batch ever released: %+v", wh.name, st)
		}
		if st.SharedExplores == 0 && st.SharedScans == 0 {
			t.Errorf("%s: a duplicated storm shared nothing: %+v", wh.name, st)
		}
	}
}

// A member whose context ends while gathering must leave cleanly with
// its own context error, and the batch must go on to serve the rest.
func TestBatchGatherCancellation(t *testing.T) {
	e := ebizEngine()
	e.SetBatching(50*time.Millisecond, 1000) // window long, cap unreachable
	nets, err := e.Differentiate("Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v (%d nets)", err, len(nets))
	}
	opts := DefaultExploreOptions()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.ExploreBatchedCtx(ctx, nets[0], opts); err != context.Canceled {
		t.Fatalf("cancelled gather returned %v, want context.Canceled", err)
	}

	// A live request joining the same batcher still completes.
	want, err := ebizEngine().Explore(nets[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e.ExploreBatchedCtx(context.Background(), nets[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
		t.Fatal("post-cancellation batched explore diverged from solo")
	}
}
