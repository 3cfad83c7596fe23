package kdapcore

import (
	"context"
	"math"

	"kdap/internal/stats"
	"kdap/internal/telemetry"
)

// AnnealConfig parameterizes the Algorithm 2 interval merge.
type AnnealConfig struct {
	// K is the number of displayed numeric categories (5–7 in §6.5).
	K int
	// L bounds the skew: the largest merged range may contain at most L
	// times as many basic intervals as the smallest (§5.3.2's second
	// objective).
	L float64
	// N is the iteration count (§6.5 shows convergence by ~100, and a
	// 500-iteration merge under 5 ms).
	N int
	// AcceptProb is the probability of accepting a non-improving neighbor
	// as the new current state — the pseudocode's "RANDOM() > some
	// constant" escape from local maxima.
	AcceptProb float64
	// Seed drives the deterministic random source.
	Seed uint64
}

// DefaultAnnealConfig returns the paper's defaults.
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{K: 6, L: 4, N: 500, AcceptProb: 0.25, Seed: 1}
}

// MergeResult is the outcome of one interval merge.
type MergeResult struct {
	// Splits are the K-1 split positions: range j spans basic intervals
	// [Splits[j-1], Splits[j]) with implicit 0 and m sentinels.
	Splits []int
	// Score is the correlation between the merged X and Y series.
	Score float64
	// BasicScore is the correlation over the unmerged basic intervals —
	// the value the merge tries to preserve.
	BasicScore float64
	// ErrPct is |Score − BasicScore| / |BasicScore| × 100, the figures'
	// y-axis.
	ErrPct float64
	// History records ErrPct of the best-so-far solution after every
	// iteration (index 0 = the equal-width start), for Figure 7/8.
	History []float64
}

// mergeSeries sums x within each range defined by splits.
func mergeSeries(x []float64, splits []int) []float64 {
	out := make([]float64, len(splits)+1)
	mergeSeriesInto(out, x, splits)
	return out
}

// mergeSeriesInto is mergeSeries writing into a caller-owned buffer of
// len(splits)+1 entries, so the annealing loop runs allocation-free.
func mergeSeriesInto(out, x []float64, splits []int) {
	prev := 0
	for j := range out {
		b := len(x)
		if j < len(splits) {
			b = splits[j]
		}
		var s float64
		for i := prev; i < b; i++ {
			s += x[i]
		}
		out[j] = s
		prev = b
	}
}

// validSplits checks ordering, bounds, and the L-skew constraint.
func validSplits(splits []int, m int, l float64) bool {
	prev := 0
	minW, maxW := math.MaxInt, 0
	for i := 0; i <= len(splits); i++ {
		s := m
		if i < len(splits) {
			s = splits[i]
		}
		w := s - prev
		if w < 1 {
			return false
		}
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
		prev = s
	}
	return float64(maxW) <= l*float64(minW)
}

// MergeIntervals is Algorithm 2: merge m basic intervals (with aggregate
// series x for the sub-dataspace and y for its roll-up space) into K
// contiguous ranges whose merged correlation stays as close as possible to
// the basic-interval correlation, subject to the L-skew constraint. The
// search is simulated annealing over split positions, starting from
// equal-width splits; it runs entirely in memory with no store access, as
// §5.3.2 emphasizes.
func MergeIntervals(x, y []float64, cfg AnnealConfig) MergeResult {
	res, _ := MergeIntervalsCtx(context.Background(), x, y, cfg)
	return res
}

// annealCheckIters is the stride between ctx.Err() checks in the anneal
// loop. One iteration is a handful of O(K) scans, so 64 iterations keep
// cancellation latency in the microseconds.
const annealCheckIters = 64

// MergeIntervalsCtx is MergeIntervals under a cancellable context: the
// N-iteration annealing loop checks ctx every annealCheckIters
// iterations and abandons the search (the default 500-iteration merge is
// fast, but an Explore runs one merge per numeric facet and the
// iteration count is configurable).
func MergeIntervalsCtx(ctx context.Context, x, y []float64, cfg AnnealConfig) (MergeResult, error) {
	if len(x) != len(y) {
		panic("kdapcore: MergeIntervals series length mismatch")
	}
	m := len(x)
	k := cfg.K
	if k > m {
		k = m
	}
	if k < 1 {
		k = 1
	}
	basic := stats.Pearson(x, y)

	// Equal-width start.
	start := make([]int, 0, k-1)
	for j := 1; j < k; j++ {
		start = append(start, j*m/k)
	}
	// Scratch merged series, reused across the whole search: the loop
	// below runs allocation-free, which matters because every numeric
	// facet in an Explore runs a full N-iteration merge.
	mx := make([]float64, k)
	my := make([]float64, k)
	score := func(splits []int) float64 {
		mergeSeriesInto(mx, x, splits)
		mergeSeriesInto(my, y, splits)
		return stats.Pearson(mx, my)
	}
	errOf := func(s float64) float64 { return math.Abs(s - basic) }

	cur := append([]int(nil), start...)
	best := append([]int(nil), start...)
	bestScore := score(best)
	bestErr := errOf(bestScore)
	curErr := bestErr
	history := make([]float64, 0, cfg.N+1)
	record := func() {
		history = append(history, stats.AbsErrPct(bestScore, basic))
	}
	record()

	rng := stats.NewRNG(cfg.Seed)
	neighbor := make([]int, len(cur))
	done := ctx.Done()
	for i := 0; i < cfg.N; i++ {
		if done != nil && i%annealCheckIters == 0 {
			if err := ctx.Err(); err != nil {
				return MergeResult{}, err
			}
		}
		if len(cur) == 0 {
			record()
			continue // K >= m: nothing to move
		}
		// Neighbor: move one random split by ±1 basic interval.
		copy(neighbor, cur)
		j := rng.Intn(len(neighbor))
		if rng.Intn(2) == 0 {
			neighbor[j]--
		} else {
			neighbor[j]++
		}
		if !validSplits(neighbor, m, cfg.L) {
			record()
			continue
		}
		nScore := score(neighbor)
		nErr := errOf(nScore)
		if nErr < bestErr {
			best = append(best[:0], neighbor...)
			bestScore, bestErr = nScore, nErr
		}
		// Accept improving neighbors always; others with AcceptProb, the
		// pseudocode's deliberate acceptance of worse states. (The
		// short-circuit keeps the RNG call sequence identical to the
		// allocating implementation, so results are unchanged.)
		if nErr <= curErr || rng.Float64() < cfg.AcceptProb {
			cur, neighbor = neighbor, cur
			curErr = nErr
		}
		record()
	}
	tr := telemetry.FromContext(ctx)
	tr.Add(telemetry.AnnealRuns, 1)
	tr.Add(telemetry.AnnealIters, cfg.N)
	final := bestScore
	return MergeResult{
		Splits:     best,
		Score:      final,
		BasicScore: basic,
		ErrPct:     stats.AbsErrPct(final, basic),
		History:    history,
	}, nil
}
