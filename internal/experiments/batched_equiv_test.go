package experiments

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/workload"
)

// Batched execution is pure scheduling: over the full Table 3 workload,
// explores gathered into batches must produce byte-identical facet
// output to solo execution, query by query. The solo answers are
// computed first on an unbatched engine; then every workload explore is
// fired concurrently at a batched engine (no answer cache, so all
// sharing comes from in-flight dedup and the spaces' distributions) and
// each result's fingerprint is compared to its solo twin.
func TestBatchedFacetsByteIdentical(t *testing.T) {
	wh := dataset.AWOnline()
	solo := Engine(wh)
	batched := Engine(wh)
	batched.SetBatching(2*time.Millisecond, 8)
	opts := kdapcore.DefaultExploreOptions()

	type cs struct {
		id   int
		text string
		sn   *kdapcore.StarNet
		want []byte // nil when the solo explore errored
		werr string
	}
	var cases []cs
	for _, q := range workload.AWOnlineQueries() {
		nets, err := solo.Differentiate(q.Text)
		if err != nil {
			t.Fatalf("query %d %q: %v", q.ID, q.Text, err)
		}
		if len(nets) == 0 {
			continue
		}
		c := cs{id: q.ID, text: q.Text, sn: nets[0]}
		if f, err := solo.Explore(nets[0], opts); err != nil {
			c.werr = err.Error()
		} else {
			c.want = f.Fingerprint()
		}
		cases = append(cases, c)
	}
	if len(cases) < 40 {
		t.Fatalf("only %d/50 workload queries produced an interpretation", len(cases))
	}

	var wg sync.WaitGroup
	errs := make([]string, len(cases))
	got := make([][]byte, len(cases))
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, _, err := batched.ExploreBatchedCtx(context.Background(), cases[i].sn, opts)
			if err != nil {
				errs[i] = err.Error()
				return
			}
			got[i] = f.Fingerprint()
		}(i)
	}
	wg.Wait()

	for i, c := range cases {
		if c.werr != "" || errs[i] != "" {
			if c.werr != errs[i] {
				t.Fatalf("query %d %q: errors diverge: solo=%q batched=%q", c.id, c.text, c.werr, errs[i])
			}
			continue
		}
		if !bytes.Equal(got[i], c.want) {
			t.Fatalf("query %d %q: batched facets differ from solo\nsolo: %.300s\nbatched: %.300s",
				c.id, c.text, c.want, got[i])
		}
	}
	st := batched.BatchStats()
	if st.Batches == 0 || st.Requests == 0 {
		t.Fatalf("batched engine never gathered: %+v", st)
	}
	if st.SharedScans == 0 {
		t.Fatalf("no distribution was adopted across 50 concurrent explores: %+v", st)
	}
}
