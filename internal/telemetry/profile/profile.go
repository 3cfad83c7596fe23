// Package profile assembles one canonical wide event per request: the
// single record that answers "why was this query slow" by capturing
// everything the pipeline knows and previously dropped — cache outcome,
// segment pruning, kernel path, fulltext postings
// touched, anneal iterations, ranking candidates, queue wait, per-stage
// durations, and the final disposition. Completed events feed the
// always-on flight recorder (recorder.go): ring buffers of recent /
// slow / errored queries plus a live in-flight table behind
// GET /debug/queries, with an inline JSON copy behind ?profile=1 and a
// human rendering behind the kdap REPL's `profile` command.
//
// Like the span tracer, the package is context-driven with an
// allocation-free disabled path: FromContext returns nil outside a
// profiled request, and every method on *P is safe (and free) on a nil
// receiver, so instrumentation sites need no conditionals. Counter
// fields are atomics because a single request fans out — the facet
// scorer and the striped kernels record concurrently.
package profile

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Dispositions a request can end with. The server maps HTTP status to
// these when completing a profile; the SLO layer classifies from them.
const (
	DispositionOK        = "ok"
	DispositionError     = "error"
	DispositionCancelled = "cancelled"
	DispositionDeadline  = "deadline"
	DispositionShed      = "shed"
)

// P is one request's wide event while it is being assembled. Fields
// written only by the owning request goroutine are guarded by mu anyway
// because the flight recorder's in-flight table snapshots live profiles
// concurrently; fan-out counters are atomics.
type P struct {
	id    string
	route string
	start time.Time

	mu           sync.Mutex
	db           string
	query        string
	cacheOutcome string
	disposition  string
	status       int
	errMsg       string
	queueWait    time.Duration
	duration     time.Duration
	stages       []Stage
	done         bool

	sharedScans         atomic.Int64
	segmentsScanned     atomic.Int64
	segmentsSkippedZone atomic.Int64
	segmentsSkippedBits atomic.Int64
	serialScans         atomic.Int64
	parallelScans       atomic.Int64
	kernelStripes       atomic.Int64
	rowsScanned         atomic.Int64
	fulltextProbes      atomic.Int64
	fulltextPostings    atomic.Int64
	annealRuns          atomic.Int64
	annealIters         atomic.Int64
	candidates          atomic.Int64
}

// Stage is one flattened pipeline stage with its summed duration.
type Stage struct {
	Name   string `json:"name"`
	Micros int64  `json:"us"`
}

// New starts a standalone wide event (not tracked by a Recorder) — the
// REPL uses this; the server goes through Recorder.Start instead.
func New(route, id string) *P {
	return &P{id: id, route: route, start: time.Now()}
}

// ctxKey carries the profile through a context.
type ctxKey struct{}

// NewContext returns ctx with p attached.
func NewContext(ctx context.Context, p *P) context.Context {
	return context.WithValue(ctx, ctxKey{}, p)
}

// FromContext returns the request's profile, or nil when the request is
// not profiled. The nil path is one context lookup and no allocations.
func FromContext(ctx context.Context) *P {
	p, _ := ctx.Value(ctxKey{}).(*P)
	return p
}

// ID returns the request ID.
func (p *P) ID() string {
	if p == nil {
		return ""
	}
	return p.id
}

// SetDB records the target warehouse.
func (p *P) SetDB(db string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.db = db
	p.mu.Unlock()
}

// SetQuery records the keyword query (or explore signature) text.
func (p *P) SetQuery(q string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.query = q
	p.mu.Unlock()
}

// SetCacheOutcome records the answer-cache disposition: miss, hit,
// coalesced, bypass, or revalidated (304).
func (p *P) SetCacheOutcome(o string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cacheOutcome = o
	p.mu.Unlock()
}

// SetQueueWait records time spent in the admission queue.
func (p *P) SetQueueWait(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.queueWait = d
	p.mu.Unlock()
}

// AddSharedScan counts one distribution adopted from a space's memo
// instead of scanned.
func (p *P) AddSharedScan() {
	if p == nil {
		return
	}
	p.sharedScans.Add(1)
}

// AddSegments records one planner verdict: segments let through to a
// scan vs. skipped on zone-map and on constraint-bitset evidence.
func (p *P) AddSegments(scanned, skippedZone, skippedBits int) {
	if p == nil {
		return
	}
	p.segmentsScanned.Add(int64(scanned))
	p.segmentsSkippedZone.Add(int64(skippedZone))
	p.segmentsSkippedBits.Add(int64(skippedBits))
}

// AddKernelScan records one columnar kernel invocation: the path taken
// (serial vs. striped-parallel), the stripe count, and rows scanned.
func (p *P) AddKernelScan(parallel bool, stripes, rows int) {
	if p == nil {
		return
	}
	if parallel {
		p.parallelScans.Add(1)
		p.kernelStripes.Add(int64(stripes))
	} else {
		p.serialScans.Add(1)
	}
	p.rowsScanned.Add(int64(rows))
}

// AddFulltextProbe counts one fulltext scoring pass and the postings it
// touched.
func (p *P) AddFulltextProbe(postings int) {
	if p == nil {
		return
	}
	p.fulltextProbes.Add(1)
	p.fulltextPostings.Add(int64(postings))
}

// AddFulltextPostings counts postings touched outside a scoring pass
// (e.g. the phrase-intersection walk).
func (p *P) AddFulltextPostings(n int) {
	if p == nil {
		return
	}
	p.fulltextPostings.Add(int64(n))
}

// AddAnneal records one interval-annealing run and its iterations.
func (p *P) AddAnneal(iters int) {
	if p == nil {
		return
	}
	p.annealRuns.Add(1)
	p.annealIters.Add(int64(iters))
}

// AddCandidates counts star-net candidates considered by ranking.
func (p *P) AddCandidates(n int) {
	if p == nil {
		return
	}
	p.candidates.Add(int64(n))
}

// SetStages stores the flattened per-stage durations (from
// Trace.Stages), sorted by descending duration for readability.
func (p *P) SetStages(st map[string]time.Duration) {
	if p == nil || len(st) == 0 {
		return
	}
	stages := make([]Stage, 0, len(st))
	for name, d := range st {
		stages = append(stages, Stage{Name: name, Micros: d.Microseconds()})
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].Micros != stages[j].Micros {
			return stages[i].Micros > stages[j].Micros
		}
		return stages[i].Name < stages[j].Name
	})
	p.mu.Lock()
	p.stages = stages
	p.mu.Unlock()
}

// Finish seals the event with its final status, disposition, and error.
// Idempotent: the first call wins (the recorder completes a profile
// exactly once, but a standalone user may defer it defensively).
func (p *P) Finish(status int, disposition string, err error) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	p.duration = time.Since(p.start)
	p.status = status
	p.disposition = disposition
	if err != nil {
		p.errMsg = err.Error()
	}
}

// Event is the wire/JSON form of a wide event — what /debug/queries and
// ?profile=1 return. Field names are part of the operator contract
// documented in docs/OPERATIONS.md.
type Event struct {
	ID          string    `json:"id"`
	Route       string    `json:"route"`
	DB          string    `json:"db,omitempty"`
	Query       string    `json:"query,omitempty"`
	Start       time.Time `json:"start"`
	DurationUS  int64     `json:"us"`
	InFlight    bool      `json:"inFlight,omitempty"`
	Status      int       `json:"status,omitempty"`
	Disposition string    `json:"disposition,omitempty"`
	Cache       string    `json:"cache,omitempty"`
	Error       string    `json:"error,omitempty"`
	QueueWaitUS int64     `json:"queueWaitUs,omitempty"`

	SharedScans int64 `json:"sharedScans,omitempty"`

	SegmentsScanned     int64 `json:"segmentsScanned,omitempty"`
	SegmentsSkippedZone int64 `json:"segmentsSkippedZone,omitempty"`
	SegmentsSkippedBits int64 `json:"segmentsSkippedBits,omitempty"`

	SerialScans   int64 `json:"serialScans,omitempty"`
	ParallelScans int64 `json:"parallelScans,omitempty"`
	KernelStripes int64 `json:"kernelStripes,omitempty"`
	RowsScanned   int64 `json:"rowsScanned,omitempty"`

	FulltextProbes   int64 `json:"fulltextProbes,omitempty"`
	FulltextPostings int64 `json:"fulltextPostings,omitempty"`

	AnnealRuns  int64 `json:"annealRuns,omitempty"`
	AnnealIters int64 `json:"annealIters,omitempty"`
	Candidates  int64 `json:"candidates,omitempty"`

	Stages []Stage `json:"stages,omitempty"`
}

// Snapshot renders the event's current state. For a live (unfinished)
// profile the duration is time elapsed so far and InFlight is true.
func (p *P) Snapshot() *Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	ev := &Event{
		ID:          p.id,
		Route:       p.route,
		DB:          p.db,
		Query:       p.query,
		Start:       p.start,
		Status:      p.status,
		Disposition: p.disposition,
		Cache:       p.cacheOutcome,
		Error:       p.errMsg,
		QueueWaitUS: p.queueWait.Microseconds(),
		Stages:      p.stages,
	}
	if p.done {
		ev.DurationUS = p.duration.Microseconds()
	} else {
		ev.DurationUS = time.Since(p.start).Microseconds()
		ev.InFlight = true
	}
	p.mu.Unlock()

	ev.SharedScans = p.sharedScans.Load()
	ev.SegmentsScanned = p.segmentsScanned.Load()
	ev.SegmentsSkippedZone = p.segmentsSkippedZone.Load()
	ev.SegmentsSkippedBits = p.segmentsSkippedBits.Load()
	ev.SerialScans = p.serialScans.Load()
	ev.ParallelScans = p.parallelScans.Load()
	ev.KernelStripes = p.kernelStripes.Load()
	ev.RowsScanned = p.rowsScanned.Load()
	ev.FulltextProbes = p.fulltextProbes.Load()
	ev.FulltextPostings = p.fulltextPostings.Load()
	ev.AnnealRuns = p.annealRuns.Load()
	ev.AnnealIters = p.annealIters.Load()
	ev.Candidates = p.candidates.Load()
	return ev
}

// Render returns the human `explain`-style form of the event — what the
// kdap REPL's `profile` command prints.
func (ev *Event) Render() string {
	if ev == nil {
		return "no profile recorded\n"
	}
	var b strings.Builder
	state := ev.Disposition
	if ev.InFlight {
		state = "in-flight"
	}
	fmt.Fprintf(&b, "%s", ev.Route)
	if ev.ID != "" {
		fmt.Fprintf(&b, " [%s]", ev.ID)
	}
	if ev.DB != "" {
		fmt.Fprintf(&b, " db=%s", ev.DB)
	}
	fmt.Fprintf(&b, " — %s, %s", fmtUS(ev.DurationUS), state)
	if ev.Status != 0 {
		fmt.Fprintf(&b, " (%d)", ev.Status)
	}
	if ev.Cache != "" {
		fmt.Fprintf(&b, ", cache=%s", ev.Cache)
	}
	b.WriteByte('\n')
	if ev.Query != "" {
		fmt.Fprintf(&b, "  query: %q\n", ev.Query)
	}
	if ev.Error != "" {
		fmt.Fprintf(&b, "  error: %s\n", ev.Error)
	}
	if ev.QueueWaitUS > 0 {
		fmt.Fprintf(&b, "  queue_wait: %s\n", fmtUS(ev.QueueWaitUS))
	}
	if ev.SharedScans > 0 {
		fmt.Fprintf(&b, "  distributions: adopted=%d\n", ev.SharedScans)
	}
	if ev.SegmentsScanned+ev.SegmentsSkippedZone+ev.SegmentsSkippedBits > 0 {
		fmt.Fprintf(&b, "  segments: scanned=%d skipped_zone=%d skipped_bits=%d\n",
			ev.SegmentsScanned, ev.SegmentsSkippedZone, ev.SegmentsSkippedBits)
	}
	if ev.SerialScans+ev.ParallelScans > 0 {
		fmt.Fprintf(&b, "  kernels: serial=%d striped=%d stripes=%d rows=%d\n",
			ev.SerialScans, ev.ParallelScans, ev.KernelStripes, ev.RowsScanned)
	}
	if ev.FulltextProbes > 0 {
		fmt.Fprintf(&b, "  fulltext: probes=%d postings=%d\n",
			ev.FulltextProbes, ev.FulltextPostings)
	}
	if ev.AnnealRuns > 0 {
		fmt.Fprintf(&b, "  anneal: runs=%d iters=%d\n", ev.AnnealRuns, ev.AnnealIters)
	}
	if ev.Candidates > 0 {
		fmt.Fprintf(&b, "  candidates: %d\n", ev.Candidates)
	}
	if len(ev.Stages) > 0 {
		b.WriteString("  stages:\n")
		for _, st := range ev.Stages {
			fmt.Fprintf(&b, "    %-24s %9s\n", st.Name, fmtUS(st.Micros))
		}
	}
	return b.String()
}

// fmtUS renders microseconds at stage-breakdown resolution.
func fmtUS(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
