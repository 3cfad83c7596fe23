package experiments

import (
	"bytes"
	"context"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/persist"
	"kdap/internal/workload"
)

// Segment backing is pure storage strategy: over the full Table 3
// workload, an engine whose fact table pages segments in from disk must
// produce byte-identical facet output to the resident engine for every
// query's top interpretation. Fingerprint covers facet ordering,
// scores, display ranges, and every float's last bit, so this is the
// oracle that licenses every skip the backed scans take — a Bloom or
// zone filter that drops a segment it shouldn't changes output bytes
// here.
func TestSegmentedFacetsByteIdentical(t *testing.T) {
	wh := dataset.AWOnline()
	bwh, store, err := persist.BackedWarehouse(t.TempDir(), wh)
	if err != nil {
		t.Fatalf("backed warehouse: %v", err)
	}
	// A deliberately small cache budget forces eviction traffic during
	// the workload, so the equivalence also covers re-paged segments.
	store.SetCacheBudget(1 << 20)
	mono := Engine(wh)
	seg := Engine(bwh)
	opts := kdapcore.DefaultExploreOptions()

	explored := 0
	for _, q := range workload.AWOnlineQueries() {
		nets, err := mono.DifferentiateCtx(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("query %d %q: %v", q.ID, q.Text, err)
		}
		segNets, err := seg.DifferentiateCtx(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("query %d %q (backed): %v", q.ID, q.Text, err)
		}
		if len(nets) != len(segNets) {
			t.Fatalf("query %d %q: %d interpretations resident, %d backed", q.ID, q.Text, len(nets), len(segNets))
		}
		if len(nets) == 0 {
			continue
		}
		want, wantErr := mono.ExploreCtx(context.Background(), nets[0], opts)
		got, gotErr := seg.ExploreCtx(context.Background(), segNets[0], opts)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
				t.Fatalf("query %d: explore errors diverge: resident=%v backed=%v", q.ID, wantErr, gotErr)
			}
			continue
		}
		if !bytes.Equal(got.Fingerprint(), want.Fingerprint()) {
			t.Fatalf("query %d %q: backed facets differ from resident\nresident: %.300s\nbacked: %.300s",
				q.ID, q.Text, want.Fingerprint(), got.Fingerprint())
		}
		explored++
	}
	if explored < 40 {
		t.Fatalf("only %d/50 workload queries produced an interpretation", explored)
	}
	st := store.Stats()
	if st.PagedIn == 0 {
		t.Fatal("workload never paged a segment in — the backed table was not exercised")
	}
	t.Logf("segment stats: %+v", st)
}
