package server

// The HTTP face of a request's record: request-ID plumbing, the one
// fold that completes each request's trace into its wide event, stage
// histograms and per-request counters, GET /debug/queries, and the SLO
// classification derived from completed events. The recorder itself
// (rings, in-flight table) lives in internal/telemetry/profile.

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// Flight-recorder depths: how many completed events each view retains.
// 64 recent events cover minutes of interactive traffic; the slow and
// errored rings retain their (much rarer) events far longer.
const (
	flightRecentN = 64
	flightSlowN   = 64
	flightErrN    = 64
)

// requestIDHeader is accepted from clients and echoed on every API
// response (generated when absent), so a slow request found in
// /debug/queries can be matched to the caller's own logs.
const requestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds a client-supplied ID so a hostile header
// cannot bloat the flight recorder.
const maxRequestIDLen = 64

// errShed is the error recorded on the traces of shed requests.
var errShed = errors.New("shed by admission control: in-flight cap reached and queue full or wait expired")

// requestID extracts the client-supplied request ID, truncated to
// maxRequestIDLen. Empty means "generate one" (Recorder.Start does).
func requestID(r *http.Request) string {
	id := r.Header.Get(requestIDHeader)
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	return id
}

// complete is the one fold of a finished request: it seals the trace
// with the status the response carries, moves its wide event into the
// flight recorder (which fires the SLO hook), observes each stage in
// kdap_stage_seconds and adds the trace's counts to its warehouse's
// counters. When the trace was already sealed (shed requests, pipeline
// errors, ?profile=1 responses), the earlier disposition wins.
func (s *Server) complete(tr *telemetry.Trace, status int) {
	disp := telemetry.DispositionOK
	switch {
	case status == 499:
		disp = telemetry.DispositionCancelled
	case status == http.StatusGatewayTimeout:
		disp = telemetry.DispositionDeadline
	case status == http.StatusServiceUnavailable:
		disp = telemetry.DispositionShed
	case status >= 400:
		disp = telemetry.DispositionError
	}
	ev := s.rec.Complete(tr, status, disp, nil)
	for _, st := range ev.Stages {
		s.reg.Histogram("kdap_stage_seconds",
			"KDAP pipeline stage latency (differentiate and explore sub-stages).",
			nil, "stage", st.Name).Observe(st.Duration.Seconds())
	}
	if fc := s.facts[ev.DB]; fc != nil {
		for f, c := range fc {
			if c != nil {
				c.Add(tr.Count(telemetry.Fact(f)))
			}
		}
	}
}

// FlightRecorder exposes the server's always-on recorder, for front
// ends and tests that want the raw views behind /debug/queries.
func (s *Server) FlightRecorder() *profile.Recorder { return s.rec }

// DebugQueriesResponse answers GET /debug/queries: the live in-flight
// table plus the recent / slow / errored rings, newest first (in-flight
// oldest first, so the longest-running request leads).
type DebugQueriesResponse struct {
	SlowThresholdMS float64            `json:"slowThresholdMs"`
	InFlight        []*telemetry.Event `json:"inflight"`
	Recent          []*telemetry.Event `json:"recent"`
	Slow            []*telemetry.Event `json:"slow"`
	Errored         []*telemetry.Event `json:"errored"`
}

// handleDebugQueries serves the flight recorder. Optional filters:
// ?route=/api/query, ?db=name, ?min_ms=12.5 (minimum duration, applied
// to every view including in-flight elapsed time; a finite value too
// large for a time.Duration matches nothing).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	route, db := q.Get("route"), q.Get("db")
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms >= 0) || math.IsInf(ms, 1) {
			writeError(w, http.StatusBadRequest, "min_ms must be a non-negative number")
			return
		}
		minDur = time.Duration(min(ms*float64(time.Millisecond), 1<<62)) // 146 years: no event is longer
	}
	filt := func(evs []*telemetry.Event) []*telemetry.Event {
		return profile.Filter(evs, route, db, minDur)
	}
	writeJSON(w, http.StatusOK, DebugQueriesResponse{
		SlowThresholdMS: float64(s.rec.SlowThreshold().Microseconds()) / 1000,
		InFlight:        filt(s.rec.InFlight()),
		Recent:          filt(s.rec.Recent()),
		Slow:            filt(s.rec.Slow()),
		Errored:         filt(s.rec.Errored()),
	})
}

// apiRoutes are the query-executing routes, the label set the SLO
// counters are pre-registered over.
var apiRoutes = []string{"/api/query", "/api/suggest", "/api/explore", "/api/drill"}

const (
	sloGoodHelp = "API requests meeting the latency SLO (finished within the target and not a server failure), by route."
	sloBadHelp  = "API requests violating the latency SLO (over target, 5xx, or shed), by route. Client cancellations (499) count in neither."
)

// observeSLO is the recorder's completion hook: every finished wide
// event is classified good or bad against the latency target. Bad means
// over target, a server-side failure (5xx, which includes deadline 504
// and shed 503), or shed; client cancellations (499) are excluded from
// both sides — the client gave up, the server neither met nor missed
// the objective. 4xx client errors count good unless slow: a prompt
// rejection is correct service.
func (s *Server) observeSLO(ev *telemetry.Event) {
	if ev.Disposition == telemetry.DispositionCancelled {
		return
	}
	bad := ev.Status >= 500 ||
		ev.Disposition == telemetry.DispositionShed ||
		time.Duration(ev.DurationUS)*time.Microsecond > s.opts.SLOTarget
	name, help := "kdap_slo_good_total", sloGoodHelp
	if bad {
		name, help = "kdap_slo_bad_total", sloBadHelp
	}
	s.reg.Counter(name, help, "route", ev.Route).Inc()
}

// wireSLOMetrics pre-registers the SLO pair for every API route (so
// burn-rate queries see zeros instead of absent series from the first
// scrape) along with the shed and cancellation counters whose natural
// increment sites are rarely reached, and publishes the target itself.
func (s *Server) wireSLOMetrics() {
	for _, route := range apiRoutes {
		s.reg.Counter("kdap_slo_good_total", sloGoodHelp, "route", route).Add(0)
		s.reg.Counter("kdap_slo_bad_total", sloBadHelp, "route", route).Add(0)
		s.reg.Counter("kdap_requests_shed_total",
			"API requests shed by admission control (in-flight cap and queue full or wait expired).",
			"route", route).Add(0)
		for _, reason := range []string{"cancelled", "deadline"} {
			s.reg.Counter("kdap_requests_cancelled_total",
				"API requests ended by context cancellation or deadline, by route and reason.",
				"route", route, "reason", reason).Add(0)
		}
	}
	s.reg.GaugeFunc("kdap_slo_target_seconds",
		"The latency target requests are classified against (and the /debug/queries slow-ring threshold).",
		func() float64 { return s.opts.SLOTarget.Seconds() })
}
