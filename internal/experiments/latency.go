package experiments

import (
	"context"
	"sort"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/workload"
)

// LatencyReport summarizes interactive latency over the workload — the
// responsiveness §4.1 worries about when motivating early
// disambiguation. Differentiate runs once per workload query; Explore
// once per query's top interpretation.
type LatencyReport struct {
	Queries           int
	DifferentiateP50  time.Duration
	DifferentiateP95  time.Duration
	DifferentiateMax  time.Duration
	ExploreP50        time.Duration
	ExploreP95        time.Duration
	ExploreMax        time.Duration
	ExploredSubspaces int
}

func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(p * float64(len(ds)-1))
	return ds[i]
}

// Latency measures the two phases over the AW_ONLINE workload.
func Latency() (LatencyReport, error) {
	e := Engine(dataset.AWOnline())
	opts := kdapcore.DefaultExploreOptions()
	opts.Parallel = true
	ctx := context.Background()
	var diff, expl []time.Duration
	rep := LatencyReport{}
	for _, q := range workload.AWOnlineQueries() {
		start := time.Now()
		nets, err := e.DifferentiateCtx(ctx, q.Text)
		if err != nil {
			return rep, err
		}
		diff = append(diff, time.Since(start))
		if len(nets) == 0 {
			continue
		}
		start = time.Now()
		if _, err := e.ExploreCtx(ctx, nets[0], opts); err == nil {
			expl = append(expl, time.Since(start))
			rep.ExploredSubspaces++
		}
	}
	rep.Queries = len(diff)
	rep.DifferentiateP50 = percentile(diff, 0.5)
	rep.DifferentiateP95 = percentile(diff, 0.95)
	rep.DifferentiateMax = percentile(diff, 1)
	rep.ExploreP50 = percentile(expl, 0.5)
	rep.ExploreP95 = percentile(expl, 0.95)
	rep.ExploreMax = percentile(expl, 1)
	return rep, nil
}
