package kdapcore

import (
	"context"
	"fmt"
	"time"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// Session is the interactive state machine of the paper's Figure 1 loop:
// query → ranked interpretations → pick → facets → drill/back, with the
// interestingness mode switchable at any point. Front ends (the REPL, the
// HTTP server, a GUI) hold one Session per user and drive it through
// these methods; the Session owns the drill history and re-explores after
// every navigation step.
//
// A Session is not safe for concurrent use; each user gets their own.
type Session struct {
	engine *Engine
	opts   ExploreOptions

	nets   []*StarNet
	stack  []*StarNet // drill history; top = current subspace
	facets *Facets

	tracing     bool
	lastTrace   *telemetry.Trace
	lastProfile *profile.P
	timeout     time.Duration
}

// NewSession creates a session over an engine with the given explore
// options.
func NewSession(e *Engine, opts ExploreOptions) *Session {
	return &Session{engine: e, opts: opts}
}

// Engine returns the underlying engine.
func (s *Session) Engine() *Engine { return s.engine }

// Options returns the current explore options.
func (s *Session) Options() ExploreOptions { return s.opts }

// SetTracing toggles per-operation span recording. While enabled, every
// Query/Pick/Drill/Back records a span tree retrievable via LastTrace.
func (s *Session) SetTracing(on bool) { s.tracing = on }

// Tracing reports whether span recording is enabled.
func (s *Session) Tracing() bool { return s.tracing }

// LastTrace returns the span tree of the most recent traced operation,
// or nil when tracing is off or nothing has run yet.
func (s *Session) LastTrace() *telemetry.Trace { return s.lastTrace }

// LastProfile returns the wide event of the most recent operation, or
// nil before the first one. Profiling is always on for a session — the
// per-operation cost is a few dozen atomic adds, far below interactive
// noise — so the REPL's `profile` command works retroactively on
// whatever just ran.
func (s *Session) LastProfile() *profile.Event {
	if s.lastProfile == nil {
		return nil
	}
	return s.lastProfile.Snapshot()
}

// SetTimeout sets a per-operation deadline: every subsequent
// Query/Pick/Drill/Back runs under context.WithTimeout and returns
// context.DeadlineExceeded when the pipeline overruns it. Zero (the
// default) means no deadline.
func (s *Session) SetTimeout(d time.Duration) { s.timeout = d }

// traceCtx returns the context every session operation runs under —
// always carrying a fresh wide event (LastProfile), plus a trace when
// tracing is on, bounded by the session timeout when one is set. The
// returned finish func finalizes the root span and profile, publishes
// them to LastTrace/LastProfile, and releases the deadline timer.
func (s *Session) traceCtx(op string) (context.Context, func()) {
	ctx := context.Background()
	p := profile.New(op, "")
	s.lastProfile = p
	ctx = profile.NewContext(ctx, p)
	var tr *telemetry.Trace
	finish := func() { p.Finish(0, profile.DispositionOK, nil) }
	if s.tracing {
		tr = telemetry.NewTrace(op)
		s.lastTrace = tr
		ctx = tr.Context(ctx)
		finish = func() {
			tr.Finish()
			p.SetStages(tr.Stages())
			p.Finish(0, profile.DispositionOK, nil)
		}
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		inner := finish
		finish = func() { cancel(); inner() }
	}
	return ctx, finish
}

// SetMode switches the interestingness measure; if an interpretation is
// active, its facets are rebuilt under the new mode.
func (s *Session) SetMode(mode InterestMode) error {
	s.opts.Mode = mode
	if s.Current() != nil {
		return s.refresh()
	}
	return nil
}

// Query runs the differentiate phase and resets the navigation state.
func (s *Session) Query(query string) ([]*StarNet, error) {
	ctx, finish := s.traceCtx("query")
	s.lastProfile.SetQuery(query)
	nets, err := s.engine.DifferentiateCtx(ctx, query)
	finish()
	if err != nil {
		return nil, err
	}
	s.nets = nets
	s.stack = nil
	s.facets = nil
	return nets, nil
}

// Interpretations returns the last query's ranked star nets.
func (s *Session) Interpretations() []*StarNet { return s.nets }

// Pick selects the n-th (1-based) interpretation and explores it.
func (s *Session) Pick(n int) (*Facets, error) {
	if n < 1 || n > len(s.nets) {
		return nil, fmt.Errorf("kdap: pick %d outside 1..%d", n, len(s.nets))
	}
	s.stack = []*StarNet{s.nets[n-1]}
	if err := s.refresh(); err != nil {
		s.stack = nil
		return nil, err
	}
	return s.facets, nil
}

// Current returns the star net at the top of the drill stack, or nil
// before Pick.
func (s *Session) Current() *StarNet {
	if len(s.stack) == 0 {
		return nil
	}
	return s.stack[len(s.stack)-1]
}

// Facets returns the current subspace's facets, or nil before Pick.
func (s *Session) Facets() *Facets { return s.facets }

// Depth returns the number of drill steps below the picked
// interpretation.
func (s *Session) Depth() int {
	if len(s.stack) == 0 {
		return 0
	}
	return len(s.stack) - 1
}

// Drill narrows the current subspace by a categorical facet instance and
// re-explores.
func (s *Session) Drill(attr schemagraph.AttrRef, role string, value relation.Value) (*Facets, error) {
	cur := s.Current()
	if cur == nil {
		return nil, fmt.Errorf("kdap: no interpretation picked")
	}
	next, err := s.engine.Drill(cur, attr, role, value)
	if err != nil {
		return nil, err
	}
	return s.push(next)
}

// DrillRange narrows the current subspace to a numeric facet range and
// re-explores.
func (s *Session) DrillRange(attr schemagraph.AttrRef, role string, lo, hi float64) (*Facets, error) {
	cur := s.Current()
	if cur == nil {
		return nil, fmt.Errorf("kdap: no interpretation picked")
	}
	next, err := s.engine.DrillRange(cur, attr, role, lo, hi)
	if err != nil {
		return nil, err
	}
	return s.push(next)
}

// Back undoes the last drill and re-explores the previous subspace.
func (s *Session) Back() (*Facets, error) {
	if len(s.stack) <= 1 {
		return nil, fmt.Errorf("kdap: nothing to undo")
	}
	s.stack = s.stack[:len(s.stack)-1]
	if err := s.refresh(); err != nil {
		return nil, err
	}
	return s.facets, nil
}

// push appends a drilled net, rolling back if its subspace is empty.
func (s *Session) push(next *StarNet) (*Facets, error) {
	s.stack = append(s.stack, next)
	if err := s.refresh(); err != nil {
		s.stack = s.stack[:len(s.stack)-1]
		_ = s.refresh() // restore the previous facets; it succeeded before
		return nil, err
	}
	return s.facets, nil
}

func (s *Session) refresh() error {
	ctx, finish := s.traceCtx("explore")
	f, err := s.engine.ExploreCtx(ctx, s.Current(), s.opts)
	finish()
	if err != nil {
		return err
	}
	s.facets = f
	return nil
}

// FlatAttrs flattens the current facets' attributes in display order, the
// addressing scheme interactive front ends use ("drill N M").
func (s *Session) FlatAttrs() []*AttrFacet {
	var out []*AttrFacet
	if s.facets == nil {
		return out
	}
	for _, d := range s.facets.Dimensions {
		out = append(out, d.Attributes...)
	}
	return out
}
