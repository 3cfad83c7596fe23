// Package profile is the always-on flight recorder over requests' wide
// events (telemetry.Event): a live in-flight table of running traces
// plus ring buffers of recent / slow / errored completed events, behind
// GET /debug/queries.
package profile

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kdap/internal/telemetry"
)

// ring is a fixed-size ring buffer of completed events. Each ring has
// its own mutex so the three views never contend with each other; a
// push is one lock, one store, one increment.
type ring struct {
	mu   sync.Mutex
	buf  []*telemetry.Event
	next int
	n    int
}

func newRing(n int) *ring {
	if n < 1 {
		n = 1
	}
	return &ring{buf: make([]*telemetry.Event, n)}
}

func (r *ring) push(ev *telemetry.Event) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.n++
	r.mu.Unlock()
}

// snapshot returns the buffered events newest-first.
func (r *ring) snapshot() []*telemetry.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := r.n
	if k > len(r.buf) {
		k = len(r.buf)
	}
	out := make([]*telemetry.Event, 0, k)
	for i := 1; i <= k; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Recorder is the always-on flight recorder: a live in-flight table of
// traces plus recent / slow / errored ring buffers of completed wide
// events. Completed events are immutable, so snapshots hand out shared
// pointers without copying.
type Recorder struct {
	slowAfter  time.Duration
	seq        atomic.Uint64
	onComplete func(*telemetry.Event)

	mu       sync.Mutex
	inflight map[*telemetry.Trace]struct{}

	recent, slow, errored *ring
}

// NewRecorder builds a recorder keeping the last recentN completed
// events, plus slowN events slower than slowAfter and errN non-ok
// events. onComplete (optional) runs for every completed event — the
// server derives SLO good/bad counters there.
func NewRecorder(recentN, slowN, errN int, slowAfter time.Duration, onComplete func(*telemetry.Event)) *Recorder {
	return &Recorder{
		slowAfter:  slowAfter,
		onComplete: onComplete,
		inflight:   make(map[*telemetry.Trace]struct{}),
		recent:     newRing(recentN),
		slow:       newRing(slowN),
		errored:    newRing(errN),
	}
}

// SlowThreshold returns the duration after which a completed request
// lands in the slow ring.
func (r *Recorder) SlowThreshold() time.Duration { return r.slowAfter }

// Start opens a request's trace, its root span named name, and
// registers it in the in-flight table. An empty id gets a generated one
// (clients that send X-Request-ID keep theirs).
func (r *Recorder) Start(route, name, id string) *telemetry.Trace {
	if id == "" {
		id = "kdap-" + strconv.FormatUint(r.seq.Add(1), 36)
	}
	t := telemetry.NewTrace(name)
	t.Identify(id, route)
	r.mu.Lock()
	r.inflight[t] = struct{}{}
	r.mu.Unlock()
	return t
}

// Complete seals the trace, folds it into its wide event, moves it from
// the in-flight table into the rings, and fires the completion hook.
// The recent ring gets every event; the slow ring those over the
// threshold; the errored ring every non-ok disposition.
func (r *Recorder) Complete(t *telemetry.Trace, status int, disposition string, err error) *telemetry.Event {
	t.Finish(status, disposition, err)
	r.mu.Lock()
	delete(r.inflight, t)
	r.mu.Unlock()
	ev := t.Event()
	r.recent.push(ev)
	if time.Duration(ev.DurationUS)*time.Microsecond >= r.slowAfter {
		r.slow.push(ev)
	}
	if ev.Disposition != telemetry.DispositionOK {
		r.errored.push(ev)
	}
	if r.onComplete != nil {
		r.onComplete(ev)
	}
	return ev
}

// Recent returns the most recently completed events, newest first.
func (r *Recorder) Recent() []*telemetry.Event { return r.recent.snapshot() }

// Slow returns recent events over the slow threshold, newest first.
func (r *Recorder) Slow() []*telemetry.Event { return r.slow.snapshot() }

// Errored returns recent non-ok events, newest first.
func (r *Recorder) Errored() []*telemetry.Event { return r.errored.snapshot() }

// InFlight snapshots the live table, oldest first (the longest-running
// request — usually the interesting one — leads).
func (r *Recorder) InFlight() []*telemetry.Event {
	r.mu.Lock()
	ts := make([]*telemetry.Trace, 0, len(r.inflight))
	for t := range r.inflight {
		ts = append(ts, t)
	}
	r.mu.Unlock()
	out := make([]*telemetry.Event, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Event())
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Filter narrows a snapshot to events matching route and db (empty
// matches all) with duration >= minDur.
func Filter(evs []*telemetry.Event, route, db string, minDur time.Duration) []*telemetry.Event {
	out := evs[:0:0]
	minUS := minDur.Microseconds()
	for _, ev := range evs {
		if route != "" && ev.Route != route {
			continue
		}
		if db != "" && ev.DB != db {
			continue
		}
		if ev.DurationUS < minUS {
			continue
		}
		out = append(out, ev)
	}
	return out
}
