package experiments

import (
	"context"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/workload"
)

// Every workload query's intended interpretation must be generated at
// some rank — a missing interpretation is a candidate-generation bug, not
// a ranking result.
func TestFig4AllInterpretationsGenerated(t *testing.T) {
	e := Engine(dataset.AWOnline())
	for _, q := range workload.AWOnlineQueries() {
		rank, err := QueryRank(e, q, kdapcore.Standard)
		if err != nil {
			t.Fatalf("q%d %q: %v", q.ID, q.Text, err)
		}
		if rank == 0 {
			nets, _ := e.DifferentiateRankedCtx(context.Background(), q.Text, kdapcore.Standard)
			t.Errorf("q%d %q: relevant net absent (%d nets)", q.ID, q.Text, len(nets))
			for i, sn := range nets {
				if i >= 6 {
					break
				}
				t.Logf("   #%d %.5f %s", i+1, sn.Score, sn.DomainSignature())
			}
		} else {
			t.Logf("q%d %q: rank %d", q.ID, q.Text, rank)
		}
	}
}

// The headline Figure 4 shape: the standard method satisfies every query
// at top-1 (50/50, the precision@1 this reproduction pins; the paper
// reports 94%), dominates the baseline and the no-group-number-norm
// variant, and the no-size-norm variant lands close behind (the paper:
// 88% at top-1).
func TestFig4Shape(t *testing.T) {
	e := Engine(dataset.AWOnline())
	curves, err := Fig4(e, workload.AWOnlineQueries())
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[kdapcore.RankMethod]RankCurve{}
	for _, c := range curves {
		byMethod[c.Method] = c
		t.Logf("%-22s top1=%.0f%% top2=%.0f%% top3=%.0f%% top4=%.0f%% top5=%.0f%% worst=%q@%d missing=%v",
			c.Method, c.CumulativePct[0], c.CumulativePct[1], c.CumulativePct[2],
			c.CumulativePct[3], c.CumulativePct[4], c.WorstQuery, c.WorstRank, c.Missing)
	}
	std := byMethod[kdapcore.Standard]
	if len(std.Missing) > 0 {
		t.Fatalf("standard method missing interpretations: %v", std.Missing)
	}
	if std.CumulativePct[0] < 100 {
		t.Errorf("standard top-1 = %.0f%%, want 100%% (50/50)", std.CumulativePct[0])
	}
	if std.CumulativePct[4] < 100 {
		t.Errorf("standard top-5 = %.0f%%, want 100%%", std.CumulativePct[4])
	}
	base := byMethod[kdapcore.Baseline]
	noNum := byMethod[kdapcore.NoGroupNumNorm]
	noSize := byMethod[kdapcore.NoGroupSizeNorm]
	if std.CumulativePct[0] <= base.CumulativePct[0] {
		t.Errorf("standard (%f) must beat baseline (%f) at top-1",
			std.CumulativePct[0], base.CumulativePct[0])
	}
	if std.CumulativePct[0] <= noNum.CumulativePct[0] {
		t.Errorf("standard (%f) must beat no-group-number-norm (%f) at top-1",
			std.CumulativePct[0], noNum.CumulativePct[0])
	}
	// No-size-norm does "surprisingly well" — within 15 points of standard.
	if std.CumulativePct[0]-noSize.CumulativePct[0] > 15 {
		t.Errorf("no-size-norm (%f) should be close behind standard (%f)",
			noSize.CumulativePct[0], std.CumulativePct[0])
	}
}

// §6.3's replica on the reseller database: "the results are almost
// identical" — we require the same qualitative shape, and the standard
// method's precision@1 of 29/30 (96.7%; 28/30 would be 93.3%).
func TestFig4Reseller(t *testing.T) {
	e := Engine(dataset.AWReseller())
	curves, err := Fig4(e, workload.AWResellerQueries())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		t.Logf("%-22s top1=%.0f%% top5=%.0f%% missing=%v", c.Method, c.CumulativePct[0], c.CumulativePct[4], c.Missing)
	}
	var std RankCurve
	for _, c := range curves {
		if c.Method == kdapcore.Standard {
			std = c
		}
	}
	if len(std.Missing) > 0 {
		t.Fatalf("reseller standard missing: %v", std.Missing)
	}
	if std.CumulativePct[0] < 96 || std.CumulativePct[4] < 100 {
		t.Errorf("reseller standard curve: top1=%.0f top5=%.0f", std.CumulativePct[0], std.CumulativePct[4])
	}
}
