package experiments

import (
	"context"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// Identity under sharing. An engine's spaces carry their distributions
// from one explore to the next, so an answer may be assembled from
// group-bys other queries computed. For the golden set, an engine
// serving the whole set a second time — every distribution warm — must
// fingerprint each net byte-identically to an engine that has served
// nothing else; and the same must hold when every distribution was
// warmed before the golden test's 3-batch append schedule and the set
// is explored again after it, against engines that first see the table
// at its final length.
func TestWarmSpacesByteIdentical(t *testing.T) {
	check := func(t *testing.T, label string, wh *dataset.Warehouse, warm *kdapcore.Engine, n int) {
		t.Helper()
		nets := goldenNets(t, label, warm, n)
		tr := telemetry.NewTrace("warm")
		for _, nn := range nets {
			got := goldenLine(tr.Context(context.Background()), label, warm, nn)
			if want := goldenLine(context.Background(), label, Engine(wh), nn); got != want {
				t.Errorf("%s: warm engine diverges from a fresh one:\n  want %s\n  got  %s", label, want, got)
			}
		}
		if tr.Count(telemetry.SharedScans) == 0 {
			t.Errorf("%s: the warm pass adopted no distribution; nothing was shared", label)
		}
	}

	t.Run("served twice", func(t *testing.T) {
		wh := dataset.AWOnline()
		warm := Engine(wh)
		goldenPass(t, "aw_online", warm, dataset.AWOnlineFactCount)
		check(t, "aw_online", wh, warm, dataset.AWOnlineFactCount)
	})

	t.Run("warmed before appends", func(t *testing.T) {
		const scaled, resident = 60_000, 50_000
		wh, tail := dataset.AWOnlineScaledPartial(scaled, resident)
		warm := Engine(wh)
		goldenPass(t, "resident", warm, scaled)
		appendBatches(t, warm, [][][]relation.Value{tail[:3000], tail[3000:9000], tail[9000:]})
		check(t, "resident", wh, warm, scaled)
	})
}
