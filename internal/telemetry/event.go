package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Dispositions a request can end with. The server maps HTTP status to
// these when completing a trace; the SLO layer classifies from them.
const (
	DispositionOK        = "ok"
	DispositionError     = "error"
	DispositionCancelled = "cancelled"
	DispositionDeadline  = "deadline"
	DispositionShed      = "shed"
)

// Event is a request's wide event: the one record that answers "why was
// this query slow", folded from its trace — identity copied, stages
// summed by name, counts read. It is what /debug/queries and ?profile=1
// return and what the kdap REPL's `profile` command renders. Field
// names are part of the operator contract documented in
// docs/OPERATIONS.md.
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

// Stage is one pipeline stage with its summed duration.
type Stage struct {
	Name   string `json:"name"`
	Micros int64  `json:"us"`
	// Duration is Micros at full resolution, for the stage histograms.
	Duration time.Duration `json:"-"`
}

// Event folds the trace into its wide event. For a live trace the
// duration is the time elapsed so far and InFlight is true. Stages are
// sorted by descending duration.
func (t *Trace) Event() *Event {
	st := t.Stages()
	t.mu.Lock()
	ev := &Event{
		ID:          t.id,
		Route:       t.route,
		DB:          t.db,
		Query:       t.query,
		Start:       t.root.start,
		InFlight:    !t.done,
		Status:      t.status,
		Disposition: t.disposition,
		Cache:       t.cache,
		Error:       t.errMsg,
	}
	t.mu.Unlock()
	ev.DurationUS = t.root.Duration().Microseconds()
	ev.QueueWaitUS = st["queue_wait"].Microseconds()

	ev.SharedScans = t.Count(SharedScans)
	ev.SegmentsScanned = t.Count(SegmentsScanned)
	ev.SegmentsSkippedZone = t.Count(SegmentsSkippedZone)
	ev.SegmentsSkippedBits = t.Count(SegmentsSkippedBits)
	ev.SerialScans = t.Count(SerialScans)
	ev.ParallelScans = t.Count(ParallelScans)
	ev.KernelStripes = t.Count(KernelStripes)
	ev.RowsScanned = t.Count(RowsScanned)
	ev.FulltextProbes = t.Count(FulltextProbes)
	ev.FulltextPostings = t.Count(FulltextPostings)
	ev.AnnealRuns = t.Count(AnnealRuns)
	ev.AnnealIters = t.Count(AnnealIters)
	ev.Candidates = t.Count(Candidates)

	ev.Stages = make([]Stage, 0, len(st))
	for name, d := range st {
		ev.Stages = append(ev.Stages, Stage{Name: name, Micros: d.Microseconds(), Duration: d})
	}
	sort.Slice(ev.Stages, func(i, j int) bool {
		a, b := ev.Stages[i], ev.Stages[j]
		if a.Micros != b.Micros {
			return a.Micros > b.Micros
		}
		return a.Name < b.Name
	})
	return ev
}

// Render returns the human `explain`-style form of the event — what the
// kdap REPL's `profile` command prints.
func (ev *Event) Render() string {
	if ev == nil {
		return "no profile recorded\n"
	}
	us := func(n int64) string { return fmtDur(time.Duration(n) * time.Microsecond) }
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
	fmt.Fprintf(&b, " — %s, %s", us(ev.DurationUS), state)
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
		fmt.Fprintf(&b, "  queue_wait: %s\n", us(ev.QueueWaitUS))
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
			fmt.Fprintf(&b, "    %-24s %9s\n", st.Name, us(st.Micros))
		}
	}
	return b.String()
}
