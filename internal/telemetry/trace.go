package telemetry

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The span tracer records a per-query tree of timed pipeline stages —
// differentiate's filter extraction → hit probing → phrase merge → seed
// enumeration → star-net generation → ranking, and explore's subspace
// semijoin → roll-up build → facet scoring → interval annealing. It is
// context-driven: StartSpan is a no-op returning a nil *Span unless a
// Trace has been attached with Trace.Context, so the untraced path costs
// one context lookup and zero allocations. The HTTP server attaches a
// trace to every request (folding stage durations into the metrics
// registry and, behind ?trace=1, serializing the tree into the
// response); the kdap CLI's -trace flag prints the tree after each step.

// Span is one timed stage. Spans form a tree under a Trace; child spans
// may be created concurrently (the facet scorer fans out), so the child
// list is mutex-protected. A nil *Span is a valid no-op span.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	children []*Span
}

// spanKey carries the current parent span through a context.
type spanKey struct{}

// Trace is one query's span tree.
type Trace struct {
	root *Span
}

// NewTrace starts a trace whose root span carries the given name
// (typically the request kind: "query", "explore").
func NewTrace(name string) *Trace {
	return &Trace{root: &Span{name: name, start: time.Now()}}
}

// Context returns ctx with the trace attached; StartSpan calls under it
// record into this trace.
func (t *Trace) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, t.root)
}

// Finish ends the root span.
func (t *Trace) Finish() { t.root.End() }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// StartSpan begins a stage span under the current span of ctx. When no
// trace is attached it returns (ctx, nil) without allocating; ending a
// nil span is a no-op, so call sites need no conditionals.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, sp)
	parent.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFromContext returns the current span of ctx, or nil when no trace
// is attached. Useful with AddTimed for stages whose duration is
// measured around a call that may or may not have done shared work
// (e.g. a coalesced follower adopting a peer's in-flight answer).
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// AddTimed attaches an already-measured child span — for stages timed
// outside the traced call tree, like the admission queue wait measured
// by middleware before the request trace exists. Safe on a nil span.
func (s *Span) AddTimed(name string, d time.Duration) {
	if s == nil {
		return
	}
	child := &Span{name: name, start: time.Now().Add(-d), dur: d}
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
	s.dur = d
	s.mu.Unlock()
}

// Name returns the span's stage name.
func (s *Span) Name() string { return s.name }

// Duration returns the recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// snapshot returns the span's duration and children without holding the
// lock during recursion.
func (s *Span) snapshot() (time.Duration, []*Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur, append([]*Span(nil), s.children...)
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
func (t *Trace) JSON() *SpanJSON { return spanJSON(t.root) }

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
	walk(t.root, 0)
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

// Stages flattens the tree into total duration per stage name (a stage
// appearing at several tree positions — e.g. one groupby_kernel per
// scored attribute — sums). The server folds this into its per-stage
// latency histograms so /metrics reflects pipeline timing even for
// untraced clients.
func (t *Trace) Stages() map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(s *Span)
	walk = func(s *Span) {
		dur, children := s.snapshot()
		out[s.name] += dur
		for _, c := range children {
			walk(c)
		}
	}
	walk(t.root)
	return out
}

// StageNames returns the distinct stage names in the trace, sorted.
func (t *Trace) StageNames() []string {
	st := t.Stages()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
