// Package experiments reproduces every table and figure of the paper's
// §6 evaluation: Table 1 (star nets for "California Mountain Bikes"),
// Table 2 (dynamic facets of the chosen subspace), Figure 4 (star-net
// ranking quality over the 50-query workload, four methods), Figures 5
// and 6 (bucket-count sweeps for numeric group-by scoring), and
// Figures 7/8 (interval-merge convergence).
package experiments

import (
	"context"
	"fmt"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/workload"
)

// Engine builds a KDAP engine over a warehouse with the paper's measure:
// sales revenue = SUM(UnitPrice × OrderQuantity).
func Engine(wh *dataset.Warehouse) *kdapcore.Engine {
	fact := wh.DB.Table(wh.Graph.FactTable())
	return kdapcore.NewEngine(wh.Graph, wh.Index, olap.RevenueMeasure(fact), olap.Sum)
}

// RankCurve is one line of Figure 4: the fraction of workload queries
// whose relevant star net appears within the top-x results, x = 1..5.
type RankCurve struct {
	Method kdapcore.RankMethod
	// CumulativePct[x-1] = percentage of queries satisfied within top-(x).
	CumulativePct [5]float64
	// WorstQuery is the satisfied query with the deepest rank.
	WorstQuery string
	WorstRank  int
	// Missing lists queries whose relevant net never appeared at any rank
	// (should stay empty; it indicates a generation gap, not a ranking
	// failure).
	Missing []string
}

// Fig4 evaluates all four ranking methods over a workload, reproducing
// Figure 4's protocol: for each query, find the rank of the first star
// net whose domain signature the ground truth accepts.
func Fig4(e *kdapcore.Engine, queries []workload.Query) ([]RankCurve, error) {
	curves := make([]RankCurve, 0, len(kdapcore.RankMethods))
	for _, method := range kdapcore.RankMethods {
		c := RankCurve{Method: method, WorstRank: 0}
		within := [5]int{}
		for _, q := range queries {
			nets, err := e.DifferentiateRankedCtx(context.Background(), q.Text, method)
			if err != nil {
				return nil, fmt.Errorf("query %d %q: %w", q.ID, q.Text, err)
			}
			rank := 0
			for i, sn := range nets {
				if q.Relevant(sn.DomainSignature()) {
					rank = i + 1
					break
				}
			}
			if rank == 0 {
				c.Missing = append(c.Missing, q.Text)
				continue
			}
			if rank > c.WorstRank {
				c.WorstRank = rank
				c.WorstQuery = q.Text
			}
			for x := rank; x <= 5; x++ {
				within[x-1]++
			}
		}
		for x := 0; x < 5; x++ {
			c.CumulativePct[x] = 100 * float64(within[x]) / float64(len(queries))
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// QueryRank returns, for one query under one method, the rank of the
// first acceptable net (0 when absent) — used by tests and by the
// per-query diagnostics of the bench harness.
func QueryRank(e *kdapcore.Engine, q workload.Query, method kdapcore.RankMethod) (int, error) {
	nets, err := e.DifferentiateRankedCtx(context.Background(), q.Text, method)
	if err != nil {
		return 0, err
	}
	for i, sn := range nets {
		if q.Relevant(sn.DomainSignature()) {
			return i + 1, nil
		}
	}
	return 0, nil
}
