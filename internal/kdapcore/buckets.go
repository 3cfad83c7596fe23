package kdapcore

import (
	"fmt"
	"math"
	"sort"

	"kdap/internal/olap"
)

// Intervals is an equal-width bucketization of a numeric attribute domain:
// the "basic intervals" of §5.2.2. Edges has len(Buckets)+1 entries; bucket
// i covers [Edges[i], Edges[i+1]) with the last bucket closed on the right.
type Intervals struct {
	Edges []float64
}

// Buckets returns the number of basic intervals.
func (iv Intervals) Buckets() int { return len(iv.Edges) - 1 }

// Find returns the bucket index containing v, or -1 when v is outside the
// domain or NaN. A value on an edge shared by several buckets belongs to
// the first of them, except the domain's top edge, which closes the last
// bucket.
//
// Equal-width edges put v in bucket (v-lo)/width, so that is computed
// and then checked against the edges themselves — they, not the
// arithmetic, decide, so rounding in the quotient cannot move a value
// across an edge. The guess is exact or one off for equal-width edges;
// for edges of any other shape (MakeDistinctIntervals) it is only a
// starting point and a binary search finishes the job.
func (iv Intervals) Find(v float64) int {
	n := iv.Buckets()
	if n <= 0 || !(v >= iv.Edges[0] && v <= iv.Edges[n]) {
		return -1
	}
	if v == iv.Edges[n] {
		return n - 1
	}
	// From here Edges[0] <= v < Edges[n]: exactly one g in [0, n) has
	// Edges[g] <= v < Edges[g+1].
	g := 0
	if f := (v - iv.Edges[0]) / (iv.Edges[n] - iv.Edges[0]) * float64(n); f >= float64(n) {
		g = n - 1
	} else if f > 0 { // not NaN (infinite edges)
		g = int(f)
	}
	if v < iv.Edges[g] {
		g--
	} else if v >= iv.Edges[g+1] {
		g++
	}
	if !(iv.Edges[g] <= v && v < iv.Edges[g+1]) {
		g = sort.Search(n, func(i int) bool { return iv.Edges[i+1] > v })
	}
	for g > 0 && iv.Edges[g-1] == v {
		g--
	}
	return g
}

// Label renders bucket i the way the paper's Table 2 shows numeric
// categories ("323 - 470").
func (iv Intervals) Label(i int) string {
	return fmt.Sprintf("%s - %s", trimFloat(iv.Edges[i]), trimFloat(iv.Edges[i+1]))
}

func trimFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.2f", f)
}

// MakeIntervals builds n equal-width basic intervals spanning the value
// range of vals. A degenerate domain (all values equal, or empty) yields a
// single bucket.
func MakeIntervals(vals []olap.ValueMeasure, n int) Intervals {
	if len(vals) == 0 {
		return Intervals{Edges: []float64{0, 0}}
	}
	lo, hi := vals[0].Value, vals[0].Value
	for _, vm := range vals[1:] {
		if vm.Value < lo {
			lo = vm.Value
		}
		if vm.Value > hi {
			hi = vm.Value
		}
	}
	if lo == hi || n < 1 {
		return Intervals{Edges: []float64{lo, hi}}
	}
	edges := make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		edges[i] = lo + float64(i)*w
	}
	edges[n] = hi // guard against floating-point drift
	return Intervals{Edges: edges}
}

// MakeDistinctIntervals builds one bucket per distinct value — the ground
// truth of §6.4, "each distinct value from the subspace has its own
// bucket". Edges fall halfway between consecutive distinct values.
func MakeDistinctIntervals(vals []olap.ValueMeasure) Intervals {
	if len(vals) == 0 {
		return Intervals{Edges: []float64{0, 0}}
	}
	seen := map[float64]bool{}
	var distinct []float64
	for _, vm := range vals {
		if !seen[vm.Value] {
			seen[vm.Value] = true
			distinct = append(distinct, vm.Value)
		}
	}
	sort.Float64s(distinct)
	if len(distinct) == 1 {
		return Intervals{Edges: []float64{distinct[0], distinct[0]}}
	}
	edges := make([]float64, 0, len(distinct)+1)
	edges = append(edges, distinct[0])
	for i := 1; i < len(distinct); i++ {
		edges = append(edges, (distinct[i-1]+distinct[i])/2)
	}
	edges = append(edges, distinct[len(distinct)-1])
	return Intervals{Edges: edges}
}

// OccupiedSeries reduces two aligned bucket series to the partition over
// DOM(DS', attr): the paper's PAR(DS', attr) ranges only over attribute
// values present in the sub-dataspace, so buckets that no DS' tuple falls
// into are not categories of the partition. Their roll-up mass is not
// dropped, though — a background tuple belongs to the category whose
// interval covers it, so each unoccupied bucket's y mass folds into the
// nearest occupied bucket (ties toward the left neighbor). This makes the
// equal-width partition converge to the distinct-value ground truth as
// the bucket count grows.
func OccupiedSeries(x, y []float64) (xs, ys []float64) {
	if len(x) != len(y) {
		panic("kdapcore: OccupiedSeries length mismatch")
	}
	var occupied []int
	for i := range x {
		if x[i] != 0 {
			occupied = append(occupied, i)
		}
	}
	if len(occupied) == 0 {
		return nil, nil
	}
	xs = make([]float64, len(occupied))
	ys = make([]float64, len(occupied))
	for k, i := range occupied {
		xs[k] = x[i]
		ys[k] = y[i]
	}
	// Fold unoccupied buckets' background mass into the nearest occupied
	// bucket.
	for i := range x {
		if x[i] != 0 || y[i] == 0 {
			continue
		}
		nearest, best := 0, -1
		for j, oi := range occupied {
			d := oi - i
			if d < 0 {
				d = -d
			}
			if best < 0 || d < best {
				best = d
				nearest = j
			}
		}
		ys[nearest] += y[i]
	}
	return xs, ys
}

// AggregateSeries sums the measure of vals per basic interval, producing
// the aggregation-value series the correlation score consumes. Values
// outside the interval domain are dropped (they belong to the roll-up
// space but not to the sub-dataspace's domain, per §5.2.1's
// PAR(RUP(DS'), attr) restriction).
func (iv Intervals) AggregateSeries(vals []olap.ValueMeasure) []float64 {
	out := make([]float64, iv.Buckets())
	iv.Accumulate(out, vals)
	return out
}

// Accumulate adds the measure of each of vals into its basic interval's
// slot of series, in the order given — so accumulating a series piece by
// piece yields the bytes accumulating it whole does. A pair whose
// measure is NULL (NaN) is skipped, the rule every group-by follows
// (olap's aggState.add): one dirty fact must not turn its whole bucket
// into NaN.
func (iv Intervals) Accumulate(series []float64, vals []olap.ValueMeasure) {
	for _, vm := range vals {
		if math.IsNaN(vm.Measure) {
			continue
		}
		if b := iv.Find(vm.Value); b >= 0 {
			series[b] += vm.Measure
		}
	}
}
