package kdapcore

import (
	"context"
	"fmt"
	"time"

	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
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

	lastTrace *telemetry.Trace
	timeout   time.Duration
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

// LastTrace returns the record of the most recent Query/Pick/Drill/Back
// — its span tree, cache outcome and counts — or nil before the first.
// A session always records: the per-operation cost is a few spans and
// atomic adds, far below interactive noise.
func (s *Session) LastTrace() *telemetry.Trace { return s.lastTrace }

// LastProfile returns the wide event of the most recent operation (a
// fold of LastTrace), or nil before the first one, so the REPL's
// `profile` command works retroactively on whatever just ran.
func (s *Session) LastProfile() *telemetry.Event {
	if s.lastTrace == nil {
		return nil
	}
	return s.lastTrace.Event()
}

// SetTimeout sets a per-operation deadline: every subsequent
// Query/Pick/Drill/Back runs under context.WithTimeout and returns
// context.DeadlineExceeded when the pipeline overruns it. Zero (the
// default) means no deadline.
func (s *Session) SetTimeout(d time.Duration) { s.timeout = d }

// traceCtx returns the context every session operation runs under —
// carrying a fresh trace, published as LastTrace, and bounded by the
// session timeout when one is set. The returned finish func seals the
// trace and releases the deadline timer.
func (s *Session) traceCtx(op string) (context.Context, func()) {
	tr := telemetry.NewTrace(op)
	s.lastTrace = tr
	ctx := tr.Context(context.Background())
	finish := func() { tr.Finish(0, telemetry.DispositionOK, nil) }
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
	s.lastTrace.Describe("", query)
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

// Pivot cross-tabulates the current interpretation's sub-dataspace by
// two categorical facet attributes, under the session's trace and
// timeout like every other operation.
func (s *Session) Pivot(row, col *AttrFacet) (*olap.PivotTable, error) {
	ctx, finish := s.traceCtx("pivot")
	defer finish()
	g := s.engine.Graph()
	rp, ok1 := g.PathFromFact(row.Attr.Table, row.Role)
	cp, ok2 := g.PathFromFact(col.Attr.Table, col.Role)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("cannot resolve join paths for the pivot")
	}
	rows, err := s.engine.SubspaceRowsCtx(ctx, s.Current())
	if err != nil {
		return nil, err
	}
	return s.engine.exec.Pivot(ctx, rows, row.Attr.Attr, rp, col.Attr.Attr, cp, s.engine.measure, s.engine.agg)
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
