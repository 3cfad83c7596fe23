// Package telemetry is the stdlib-only observability layer: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms) with
// Prometheus text-format exposition, and a lightweight per-query span
// tracer (trace.go). KDAP is an interactive system — the paper's §7
// experiments live or die on per-stage latency — so the pipeline, the
// caches, and the columnar kernels all report here, and the HTTP server
// exposes the registry at GET /metrics.
//
// Design constraints, in order:
//
//  1. Zero dependencies. The repo is stdlib-only and stays that way.
//  2. Hot-path cost is a handful of atomic operations and no
//     allocations: instruments are resolved once (or via a read-locked
//     map lookup) and then updated lock-free.
//  3. Instance-scoped. There is no global default registry; the server
//     owns one registry per process and wires engines into it, so tests
//     and multi-warehouse setups never fight over series names.
//
// Besides the write-style instruments (Counter, Gauge, Histogram),
// CounterFunc and GaugeFunc register read-at-scrape callbacks: the
// server uses them to expose engine-owned statistics — clock-cache and
// answer-cache counters, warehouse row counts — without the engine ever
// depending on this package. docs/OPERATIONS.md is the operator-facing
// reference for every exported series; the CI cache-smoke step checks
// the live exposition against it.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// monotonic; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d atomically.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Observations are lock-free:
// one atomic add into the bucket, one into the count, one CAS loop for
// the sum. Buckets are cumulative only at exposition time.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sum    Gauge
	count  atomic.Int64
}

// DefLatencyBuckets are the default latency buckets in seconds, spanning
// warm answer-cache hits (a couple of microseconds) through
// sub-millisecond kernel calls to multi-second cold explores. The
// sub-10µs bounds exist because the fastest served answers — cache hits
// around 2.4µs and 304 revalidations — would otherwise all collapse
// into one bucket and p50/p99 estimates over them would be meaningless.
var DefLatencyBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// NewHistogram creates a histogram over the given ascending upper
// bounds. A nil/empty bounds slice uses DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// metricKind tags a family with its exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// sample is one labeled series within a family. Exactly one of the
// value sources is set.
type sample struct {
	labels  string // canonical rendered label set, "" or `{k="v",…}`
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // func-backed counter or gauge
}

func (s *sample) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	default:
		return math.NaN()
	}
}

// family is all series sharing one metric name. ordered mirrors samples
// sorted by label set, maintained at registration so every scrape walks
// the same deterministic order without re-sorting.
type family struct {
	name    string
	help    string
	kind    metricKind
	samples map[string]*sample
	ordered []*sample
}

// Registry holds metric families and renders them as Prometheus text
// exposition format. Safe for concurrent use; instrument lookups take a
// read lock, instrument updates are lock-free. ordered mirrors fams
// sorted by name, maintained at registration time (registration is rare,
// scrapes are not), which also makes the exposition byte-order
// deterministic across processes regardless of map iteration order.
type Registry struct {
	mu      sync.RWMutex
	fams    map[string]*family
	ordered []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Labels renders key/value pairs as a canonical Prometheus label set
// (sorted by key, values escaped). Pairs must come in even count.
func Labels(kv ...string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label key/value count")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getOrCreate returns the family's sample under the label set, creating
// both as needed. build constructs the instrument on first use.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels string, build func() *sample) *sample {
	r.mu.RLock()
	f := r.fams[name]
	var s *sample
	if f != nil {
		s = f.samples[labels]
	}
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, samples: make(map[string]*sample)}
		r.fams[name] = f
		i := sort.Search(len(r.ordered), func(i int) bool { return r.ordered[i].name >= name })
		r.ordered = append(r.ordered, nil)
		copy(r.ordered[i+1:], r.ordered[i:])
		r.ordered[i] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if s = f.samples[labels]; s != nil {
		return s
	}
	s = build()
	s.labels = labels
	f.samples[labels] = s
	// A new slice, not an insert in place: WritePrometheus reads the
	// slice it snapshotted after releasing the lock.
	i := sort.Search(len(f.ordered), func(i int) bool { return f.ordered[i].labels >= labels })
	f.ordered = slices.Insert(slices.Clip(f.ordered), i, s)
	return s
}

// Counter returns (creating if needed) the counter series name+labels.
// labels are key/value pairs, e.g. Counter("x_total", "…", "route", "/q").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getOrCreate(name, help, kindCounter, Labels(labels...), func() *sample {
		return &sample{counter: &Counter{}}
	})
	if s.counter == nil {
		panic("telemetry: " + name + " is func-backed")
	}
	return s.counter
}

// Gauge returns (creating if needed) the gauge series name+labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.getOrCreate(name, help, kindGauge, Labels(labels...), func() *sample {
		return &sample{gauge: &Gauge{}}
	})
	if s.gauge == nil {
		panic("telemetry: " + name + " is func-backed")
	}
	return s.gauge
}

// Histogram returns (creating if needed) the histogram series
// name+labels over the given bounds (nil bounds = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	s := r.getOrCreate(name, help, kindHistogram, Labels(labels...), func() *sample {
		return &sample{hist: NewHistogram(bounds)}
	})
	return s.hist
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for components that keep their own
// atomic counters (caches, kernels) without importing telemetry's
// instrument types. fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrCreate(name, help, kindCounter, Labels(labels...), func() *sample {
		return &sample{fn: fn}
	})
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.getOrCreate(name, help, kindGauge, Labels(labels...), func() *sample {
		return &sample{fn: fn}
	})
}

// RegisterHistogram adopts an externally owned histogram (e.g. the
// full-text index's probe latencies) as the series name+labels.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...string) {
	r.getOrCreate(name, help, kindHistogram, Labels(labels...), func() *sample {
		return &sample{hist: h}
	})
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4), families and series in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the pre-sorted family and sample slices under the lock;
	// values are read after, lock-free (they are atomics or caller-owned
	// funcs). Registration maintains sort order, so no per-scrape sorting
	// and the byte order is identical across scrapes and processes.
	type famSnap struct {
		f       *family
		samples []*sample
	}
	r.mu.RLock()
	snaps := make([]famSnap, 0, len(r.ordered))
	for _, f := range r.ordered {
		snaps = append(snaps, famSnap{f: f, samples: f.ordered})
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, fs := range snaps {
		f := fs.f
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range fs.samples {
			if f.kind == kindHistogram {
				writeHistogram(&b, f.name, s)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.value()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative buckets with
// le labels, then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *sample) {
	h := s.hist
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(s.labels, formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, cum)
}

// mergeLE inserts the le bucket label into an existing label set.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float, integers without an exponent.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
