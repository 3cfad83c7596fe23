package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Trace is a request's one record: its tree of timed pipeline stages
// — differentiate's filter extraction → hit probing → phrase merge →
// seed enumeration → star-net generation → ranking, and explore's
// subspace semijoin → roll-up build → facet scoring → interval
// annealing — plus the request's identity, its outcome and a fixed
// array of counted facts (Fact). The wide event (Event), the server's
// per-request metrics and the ?trace=1 tree are all folds over it.
//
// It is context-driven: StartSpan and Count are no-ops unless a Trace
// has been attached with Trace.Context, so a caller without one pays one
// context lookup and no allocation. The HTTP server attaches a trace to
// every API request and folds it once when the request completes; a
// kdapcore.Session records one per operation.

// Span is one timed stage. Spans form a tree under a Trace; child spans
// may be created concurrently (the facet scorer fans out), so the child
// list is mutex-protected. A nil *Span is a valid no-op span.
type Span struct {
	name  string
	start time.Time
	tr    *Trace

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
}

// spanKey carries the current span through a context; the span leads to
// its trace, so this is the only request-scoped key.
type spanKey struct{}

// Fact names one per-request count. A kernel, the planner, the
// full-text index or the engine records each fact once, on the request
// in its context; the wide event and the server's counters read the
// same array.
type Fact uint8

const (
	// SharedScans counts distributions adopted from a space's memo
	// instead of scanned; DistFills those scanned into it.
	SharedScans Fact = iota
	DistFills
	// SegmentsScanned and SegmentsSkippedBits are the row-space
	// planner's verdicts: segments let through to an intersection, and
	// skipped on constraint-bitset evidence. SegmentsSkippedZone counts
	// the segments a fact-column range build skipped unread on zone-map
	// evidence; the planner skips those again on their bits.
	SegmentsScanned
	SegmentsSkippedZone
	SegmentsSkippedBits
	// SerialScans and ParallelScans count kernel passes by schedule,
	// KernelStripes the stripes parallel passes fanned out over, and
	// RowsScanned the fact rows they visited.
	SerialScans
	ParallelScans
	KernelStripes
	RowsScanned
	// FulltextProbes counts index scoring passes, FulltextPostings the
	// postings walked by them and by phrase intersection.
	FulltextProbes
	FulltextPostings
	// AnnealRuns counts interval-annealing runs, AnnealIters their
	// iterations.
	AnnealRuns
	AnnealIters
	// Candidates counts star nets generated before ranking.
	Candidates
	// GroupBys and Aggregates count group-by and aggregate calls.
	GroupBys
	Aggregates
	// CodeColumnBuilds counts cold fact-aligned code vector
	// materializations.
	CodeColumnBuilds

	// NumFacts is the size of a trace's count array.
	NumFacts
)

// Trace is one request's record: the span tree, identity, outcome and
// counts. Identity and outcome are guarded by mu because the flight
// recorder snapshots live traces concurrently; counts are atomics
// because a request fans out.
type Trace struct {
	root   Span
	counts [NumFacts]atomic.Int64

	mu          sync.Mutex
	id, route   string
	db, query   string
	cache       string
	status      int
	disposition string
	errMsg      string
	done        bool
}

// NewTrace starts a trace whose root span carries the given name
// (the operation: "query", "explore", "ingest"). The route defaults to
// the name; Identify replaces it.
func NewTrace(name string) *Trace {
	t := &Trace{route: name}
	t.root = Span{name: name, start: time.Now(), tr: t}
	return t
}

// Context returns ctx with the trace attached; StartSpan and Count
// calls under it record into this trace.
func (t *Trace) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, &t.root)
}

// Root returns the root span.
func (t *Trace) Root() *Span { return &t.root }

// Start returns when the trace was started.
func (t *Trace) Start() time.Time { return t.root.start }

// FromContext returns the trace attached to ctx, or nil. A nil trace
// accepts Add, SetCache and Finish as no-ops.
func FromContext(ctx context.Context) *Trace {
	if sp, _ := ctx.Value(spanKey{}).(*Span); sp != nil {
		return sp.tr
	}
	return nil
}

// Count adds n to fact f of the request in ctx: one context lookup, and
// nothing when no trace is attached.
func Count(ctx context.Context, f Fact, n int) {
	FromContext(ctx).Add(f, n)
}

// Add adds n to fact f. Safe on a nil trace.
func (t *Trace) Add(f Fact, n int) {
	if t != nil {
		t.counts[f].Add(int64(n))
	}
}

// Count returns the total recorded for fact f.
func (t *Trace) Count(f Fact) int64 { return t.counts[f].Load() }

// Identify stamps the request's ID and route.
func (t *Trace) Identify(id, route string) {
	t.mu.Lock()
	t.id, t.route = id, route
	t.mu.Unlock()
}

// ID returns the request ID.
func (t *Trace) ID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Describe records the target warehouse and the query (or explore
// signature) text.
func (t *Trace) Describe(db, query string) {
	t.mu.Lock()
	t.db, t.query = db, query
	t.mu.Unlock()
}

// SetCache records the answer-cache disposition: miss, hit, bypass, or
// revalidated (304). Safe on a nil trace.
func (t *Trace) SetCache(outcome string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cache = outcome
	t.mu.Unlock()
}

// Cache returns the answer-cache disposition recorded so far.
func (t *Trace) Cache() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cache
}

// Finish seals the trace: it ends the root span and records the final
// status, disposition and error. The first call wins, so a handler that
// seals early (an error, an inline profile) keeps what it recorded.
// Safe on a nil trace.
func (t *Trace) Finish(status int, disposition string, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	t.root.End()
	t.status, t.disposition = status, disposition
	if err != nil {
		t.errMsg = err.Error()
	}
}

// StartSpan begins a stage span under the current span of ctx. When no
// trace is attached it returns (ctx, nil) without allocating; ending a
// nil span is a no-op, so call sites need no conditionals. A name may
// carry what the span worked on after a space ("score DimStore.City"):
// the tree shows it, but the span sums into the stage before the space,
// so the stage set stays closed whatever the schema.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now(), tr: parent.tr}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// AddTimed attaches an already-measured child span — for stages timed
// outside the traced call tree, like the admission queue wait. Safe on
// a nil span.
func (s *Span) AddTimed(name string, d time.Duration) {
	if s == nil {
		return
	}
	child := &Span{name: name, start: time.Now().Add(-d), tr: s.tr, dur: d, ended: true}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End stops the span's clock. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	s.dur, s.ended = d, true
	s.mu.Unlock()
}

// Name returns the span's stage name.
func (s *Span) Name() string { return s.name }

// Duration returns the span's duration: the recorded one once it has
// ended, the time elapsed so far while it is live.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	d, _ := s.snapshot()
	return d
}

// snapshot returns the span's duration and children without holding the
// lock during recursion.
func (s *Span) snapshot() (time.Duration, []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	return d, append([]*Span(nil), s.children...)
}

// SpanJSON is the wire form of a span tree, attached to API responses
// behind ?trace=1. Durations are microseconds: enough resolution for
// sub-millisecond kernels, small enough to read.
type SpanJSON struct {
	Name     string      `json:"name"`
	Micros   int64       `json:"us"`
	Children []*SpanJSON `json:"children,omitempty"`
}

// JSON converts the trace to its wire form.
func (t *Trace) JSON() *SpanJSON { return spanJSON(&t.root) }

func spanJSON(s *Span) *SpanJSON {
	dur, children := s.snapshot()
	out := &SpanJSON{Name: s.name, Micros: dur.Microseconds()}
	for _, c := range children {
		out.Children = append(out.Children, spanJSON(c))
	}
	return out
}

// Tree renders the trace as an indented per-stage breakdown:
//
//	query                          2.1ms
//	  differentiate                2.0ms
//	    hit_probe                  1.2ms
func (t *Trace) Tree() string {
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		dur, children := s.snapshot()
		fmt.Fprintf(&b, "%-*s%-*s %9s\n", 2*depth, "", 30-2*depth, s.name, fmtDur(dur))
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(&t.root, 0)
	return b.String()
}

// fmtDur renders a duration at stage-breakdown resolution.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Stages flattens the tree into total duration per stage (a stage
// appearing at several tree positions — e.g. one groupby_kernel per
// scored attribute — sums). A live span counts its time so far.
func (t *Trace) Stages() map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(s *Span)
	walk = func(s *Span) {
		dur, children := s.snapshot()
		name, _, _ := strings.Cut(s.name, " ")
		out[name] += dur
		for _, c := range children {
			walk(c)
		}
	}
	walk(&t.root)
	return out
}
