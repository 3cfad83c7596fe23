package kdapcore

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"kdap/internal/olap"
	"kdap/internal/stats"
)

func vm(pairs ...float64) []olap.ValueMeasure {
	out := make([]olap.ValueMeasure, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, olap.ValueMeasure{Value: pairs[i], Measure: pairs[i+1]})
	}
	return out
}

func TestMakeIntervalsBasic(t *testing.T) {
	iv := MakeIntervals(vm(0, 1, 10, 1), 5)
	if iv.Buckets() != 5 {
		t.Fatalf("buckets = %d", iv.Buckets())
	}
	if iv.Edges[0] != 0 || iv.Edges[5] != 10 {
		t.Errorf("edges = %v", iv.Edges)
	}
	// Bucket membership.
	cases := map[float64]int{0: 0, 1.9: 0, 2: 1, 9.99: 4, 10: 4}
	for v, want := range cases {
		if got := iv.Find(v); got != want {
			t.Errorf("Find(%g) = %d, want %d", v, got, want)
		}
	}
	if iv.Find(-0.1) != -1 || iv.Find(10.1) != -1 {
		t.Error("out-of-domain values must map to -1")
	}
}

func TestMakeIntervalsDegenerate(t *testing.T) {
	if iv := MakeIntervals(nil, 10); iv.Buckets() != 1 {
		t.Error("empty input should give one bucket")
	}
	iv := MakeIntervals(vm(5, 1, 5, 2, 5, 3), 10)
	if iv.Buckets() != 1 {
		t.Errorf("constant domain buckets = %d", iv.Buckets())
	}
	if iv.Find(5) != 0 {
		t.Error("constant domain Find")
	}
}

func TestIntervalLabels(t *testing.T) {
	iv := MakeIntervals(vm(0, 1, 100, 1), 4)
	if iv.Label(0) != "0 - 25" {
		t.Errorf("Label(0) = %q", iv.Label(0))
	}
	iv2 := MakeIntervals(vm(0, 1, 1, 1), 2)
	if iv2.Label(0) != "0 - 0.50" {
		t.Errorf("fractional label = %q", iv2.Label(0))
	}
}

func TestAggregateSeries(t *testing.T) {
	iv := MakeIntervals(vm(0, 0, 10, 0), 2) // edges 0,5,10
	series := iv.AggregateSeries(vm(1, 10, 2, 20, 6, 5, 10, 7, 99, 100))
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	if series[0] != 30 || series[1] != 12 {
		t.Errorf("series = %v, want [30 12] (out-of-domain dropped)", series)
	}
}

func TestMakeDistinctIntervals(t *testing.T) {
	vals := vm(1, 1, 3, 1, 3, 2, 7, 1)
	iv := MakeDistinctIntervals(vals)
	if iv.Buckets() != 3 {
		t.Fatalf("distinct buckets = %d (%v)", iv.Buckets(), iv.Edges)
	}
	s := iv.AggregateSeries(vals)
	if s[0] != 1 || s[1] != 3 || s[2] != 1 {
		t.Errorf("distinct series = %v", s)
	}
	if MakeDistinctIntervals(nil).Buckets() != 1 {
		t.Error("empty distinct should give one bucket")
	}
	if MakeDistinctIntervals(vm(4, 1)).Buckets() != 1 {
		t.Error("single distinct value should give one bucket")
	}
}

// Property: bucketization partitions the measure mass — the series always
// sums to the total measure of in-domain values.
func TestAggregateSeriesMassConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8, bRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw)%200 + 1
		b := int(bRaw)%64 + 1
		vals := make([]olap.ValueMeasure, n)
		var total float64
		for i := range vals {
			vals[i] = olap.ValueMeasure{Value: rng.Float64() * 1000, Measure: rng.Float64() * 10}
			total += vals[i].Measure
		}
		iv := MakeIntervals(vals, b)
		var got float64
		for _, s := range iv.AggregateSeries(vals) {
			got += s
		}
		return math.Abs(got-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Find is consistent with the edge array — every value lands in
// the bucket whose edges bracket it.
func TestFindConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		vals := make([]olap.ValueMeasure, 50)
		for i := range vals {
			vals[i] = olap.ValueMeasure{Value: rng.Float64() * 100}
		}
		iv := MakeIntervals(vals, 1+rng.Intn(30))
		for _, vmx := range vals {
			b := iv.Find(vmx.Value)
			if b < 0 {
				return false // in-domain by construction
			}
			if vmx.Value < iv.Edges[b] || vmx.Value > iv.Edges[b+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{12: "12", -3: "-3", 2.5: "2.50", 0: "0"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%g) = %q, want %q", in, got, want)
		}
	}
}

// findRef is the binary-search Find that the arithmetic one replaced,
// kept as its oracle (with the NaN guard the old one lacked).
func findRef(iv Intervals, v float64) int {
	n := iv.Buckets()
	if n <= 0 || math.IsNaN(v) || v < iv.Edges[0] || v > iv.Edges[n] {
		return -1
	}
	if v == iv.Edges[n] {
		return n - 1
	}
	i := sort.SearchFloat64s(iv.Edges, v)
	// SearchFloat64s returns the first edge >= v; bucket is the one to
	// the left unless v sits exactly on an edge.
	if i < len(iv.Edges) && iv.Edges[i] == v {
		return i
	}
	return i - 1
}

// NaN compares false with every edge; the old Find fell through to the
// binary search and answered Buckets(), one past the series.
func TestFindNaN(t *testing.T) {
	for _, iv := range []Intervals{
		MakeIntervals(vm(0, 1, 10, 1), 5),
		MakeIntervals(vm(5, 1), 5),
		MakeDistinctIntervals(vm(1, 1, 2, 1, 7, 1)),
		{Edges: []float64{math.Inf(-1), 0, math.Inf(1)}},
	} {
		if got := iv.Find(math.NaN()); got != -1 {
			t.Errorf("edges %v: Find(NaN) = %d, want -1", iv.Edges, got)
		}
		series := iv.AggregateSeries(vm(math.NaN(), 3, iv.Edges[0], 4))
		if series[0] != 4 {
			t.Errorf("edges %v: series %v", iv.Edges, series)
		}
	}
}

// One dirty fact must not turn its bucket into NaN: a pair whose measure
// is NULL is skipped, as aggState.add skips it in every group-by.
func TestAggregateSeriesSkipsNullMeasure(t *testing.T) {
	iv := MakeIntervals(vm(0, 1, 10, 1), 5)
	got := iv.AggregateSeries(vm(1, 10, 1.5, math.NaN(), 9, 2, 9.5, math.NaN()))
	want := []float64{10, 0, 0, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

// fuzzFloats decodes fuzz bytes into floats: eight bytes a value, bit
// for bit, or — small — one byte a quarter-integer, which makes ties,
// repeated edges and on-edge probes common.
func fuzzFloats(raw []byte, small bool) []float64 {
	var out []float64
	if small {
		for _, b := range raw {
			out = append(out, float64(int8(b))/4)
		}
		return out
	}
	for ; len(raw) >= 8; raw = raw[8:] {
		if f := math.Float64frombits(binary.LittleEndian.Uint64(raw)); !math.IsNaN(f) {
			out = append(out, f)
		}
	}
	return out
}

// FuzzIntervalsFind holds the arithmetic Find to the binary-search
// reference over edges of every shape a caller can build — equal-width
// (MakeIntervals), one bucket per distinct value (MakeDistinctIntervals)
// and arbitrary non-decreasing edges with repeats and infinities — for
// the fuzzed probe, NaN, and every edge and its two float neighbours.
func FuzzIntervalsFind(f *testing.F) {
	le := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(le(0, 10), 2.0, uint8(0))                                     // equal width, probe on an edge
	f.Add(le(0.1, 0.7), 0.3, uint8(0))                                  // equal width, edges that round
	f.Add(le(1, 2, 2, 2, 9), 2.0, uint8(2))                             // repeated edges
	f.Add(le(math.Inf(-1), -1, 0, math.Inf(1)), math.Inf(-1), uint8(2)) // infinite edges
	f.Add(le(-1e308, 1e308), 5.0, uint8(0))                             // a span that overflows
	f.Add(le(3, 1, 4, 1, 5, 9, 2, 6), math.NaN(), uint8(1))             // distinct-value edges, NaN probe
	f.Add([]byte{0, 4, 8, 8, 8, 12, 200, 37}, 2.0, uint8(6))            // small values, repeated edges
	f.Add([]byte{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}, 3.25, uint8(5))    // small values, distinct-value edges
	f.Fuzz(func(t *testing.T, raw []byte, v float64, shape uint8) {
		vals := fuzzFloats(raw, shape&4 != 0)
		if len(vals) == 0 || len(vals) > 512 {
			return
		}
		pairs := make([]olap.ValueMeasure, len(vals))
		for i, x := range vals {
			pairs[i].Value = x
		}
		var iv Intervals
		switch shape & 3 {
		case 0:
			iv = MakeIntervals(pairs, 1+len(raw)%64)
		case 1:
			iv = MakeDistinctIntervals(pairs)
		default:
			sort.Float64s(vals)
			iv = Intervals{Edges: vals}
		}
		for i, e := range iv.Edges {
			if math.IsNaN(e) || (i > 0 && e < iv.Edges[i-1]) {
				return // not a bucketization (an infinite domain's width is NaN)
			}
		}
		probes := []float64{v, math.NaN()}
		for _, e := range iv.Edges {
			probes = append(probes, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		for i := 1; i < len(iv.Edges); i++ {
			probes = append(probes, iv.Edges[i-1]/2+iv.Edges[i]/2)
		}
		for _, p := range probes {
			if got, want := iv.Find(p), findRef(iv, p); got != want {
				t.Fatalf("edges %v: Find(%v) = %d, reference %d", iv.Edges, p, got, want)
			}
		}
	})
}
