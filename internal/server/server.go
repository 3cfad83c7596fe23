// Package server exposes a KDAP engine over a JSON HTTP API, so that the
// differentiate → pick → explore → drill loop can back a web front end
// (the medium the paper's multi-faceted interfaces live in).
//
// Endpoints:
//
//	GET  /healthz                      liveness probe
//	GET  /api/warehouses               list the served warehouses
//	POST /api/query                    {"db","q"} → session + ranked interpretations
//	POST /api/explore                  {"session","pick",...} → facets
//	POST /api/drill                    {"session","pick","table","attr","role","value"} → new session
//
// Sessions hold the non-serializable star nets server-side; responses
// carry opaque session IDs plus rendered interpretation summaries, which
// is exactly the interaction contract of the paper's Figure 1.
//
// When the answer cache is enabled (Options.AnswerCacheSize, on by
// default), /api/query and /api/explore responses carry a weak ETag and
// an X-KDAP-Cache disposition header (miss | hit | bypass | revalidated);
// requests presenting a matching If-None-Match answer 304
// before the pipeline runs. See docs/OPERATIONS.md for the serving
// flags and the full metrics reference.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kdap/internal/cache"
	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
	"kdap/internal/telemetry/profile"
)

// Options tune the server's request lifecycle.
type Options struct {
	// QueryTimeout bounds every API request: the handler's context
	// carries a deadline and the pipeline returns DeadlineExceeded
	// (mapped to 504) when it fires. Zero means no per-request deadline
	// beyond the client's own.
	QueryTimeout time.Duration
	// MaxInflight caps concurrently executing API requests; zero or
	// negative disables admission control.
	MaxInflight int
	// MaxQueue is how many requests may wait for an in-flight slot
	// before the server sheds with 503 (default 2×MaxInflight).
	MaxQueue int
	// QueueWait is the longest a queued request waits before being shed
	// (default 250ms).
	QueueWait time.Duration
	// SessionCap bounds the session store (default 1024); cold sessions
	// are evicted CLOCK-style.
	SessionCap int
	// AnswerCacheSize is the per-engine answer cache capacity in entries
	// (per phase: differentiate and explore each); zero or negative
	// disables answer caching and ETags.
	AnswerCacheSize int
	// AnswerCacheTTL expires cached answers this long after insertion;
	// zero keeps them until evicted or invalidated.
	AnswerCacheTTL time.Duration
	// SegmentCacheMB bounds each disk-backed warehouse's segment page
	// cache, in MiB (zero keeps the store's own default). It only
	// applies to warehouses whose fact table has a pager with a cache
	// budget — resident warehouses ignore it.
	SegmentCacheMB int
	// SLOTarget is the per-request latency target (default 250ms). It
	// drives the kdap_slo_good_total / kdap_slo_bad_total classification
	// and doubles as the flight recorder's slow-ring threshold, so the
	// queries /debug/queries calls "slow" are exactly the ones burning
	// the error budget.
	SLOTarget time.Duration
}

// DefaultOptions returns the defaults New uses and kdapd's flags start
// from: a 10s per-request deadline (a runaway explore gives up and
// frees its worker), no admission cap, 1024 sessions, a 512-entry answer cache
// with a five-minute TTL, and a 64 MiB segment cache for disk-backed
// warehouses.
func DefaultOptions() Options {
	return Options{
		QueryTimeout:    10 * time.Second,
		SessionCap:      1024,
		AnswerCacheSize: 512,
		AnswerCacheTTL:  5 * time.Minute,
		SegmentCacheMB:  64,
		SLOTarget:       250 * time.Millisecond,
	}
}

// Server is the HTTP handler set over one or more warehouses.
type Server struct {
	mux     *http.ServeMux
	engines map[string]*kdapcore.Engine
	opts    Options
	adm     *admission
	rec     *profile.Recorder
	// facts holds each warehouse's per-request counters, resolved once
	// at wiring time; complete adds a finished trace's counts to them.
	facts map[string]*factCounters

	reg    *telemetry.Registry
	logger *slog.Logger
	start  time.Time

	// sessions is the CLOCK-evicted session store: under the cap, hot
	// sessions (anything resolved or created within one sweep of the
	// hand) survive while idle ones are dropped.
	sessions *cache.Clock[string, *session]
	nextID   atomic.Uint64
}

type session struct {
	db   string
	nets []*kdapcore.StarNet
}

// New creates a server over the named warehouses with DefaultOptions.
func New(warehouses map[string]*dataset.Warehouse) *Server {
	return NewWithOptions(warehouses, DefaultOptions())
}

// NewWithOptions creates a server with explicit lifecycle options.
func NewWithOptions(warehouses map[string]*dataset.Warehouse, opts Options) *Server {
	if opts.SessionCap <= 0 {
		opts.SessionCap = 1024
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 2 * opts.MaxInflight
	}
	if opts.SLOTarget <= 0 {
		opts.SLOTarget = 250 * time.Millisecond
	}
	s := &Server{
		mux:      http.NewServeMux(),
		engines:  make(map[string]*kdapcore.Engine),
		facts:    make(map[string]*factCounters),
		opts:     opts,
		adm:      newAdmission(opts.MaxInflight, opts.MaxQueue, opts.QueueWait),
		reg:      telemetry.NewRegistry(),
		logger:   slog.Default(),
		start:    time.Now(),
		sessions: cache.NewClock[string, *session](opts.SessionCap),
	}
	s.rec = profile.NewRecorder(flightRecentN, flightSlowN, flightErrN, opts.SLOTarget, s.observeSLO)
	for name, wh := range warehouses {
		fact := wh.DB.Table(wh.Graph.FactTable())
		e := kdapcore.NewEngine(wh.Graph, wh.Index, olap.RevenueMeasure(fact), olap.Sum)
		e.SetAnswerCache(opts.AnswerCacheSize, opts.AnswerCacheTTL)
		if p := fact.Pager(); p != nil {
			if opts.SegmentCacheMB > 0 {
				if bud, ok := p.(interface{ SetCacheBudget(bytes int64) }); ok {
					bud.SetCacheBudget(int64(opts.SegmentCacheMB) << 20)
				}
			}
			s.wireSegmentMetrics(name, p)
		}
		s.engines[name] = e
		s.wireEngineMetrics(name, e)
	}
	s.handle("GET /{$}", "/", s.handleUI)
	s.handle("GET /healthz", "/healthz", s.handleHealth)
	s.handle("GET /api/warehouses", "/api/warehouses", s.handleWarehouses)
	// The query-executing routes additionally pass through the request
	// lifecycle layer; cheap metadata routes above do not.
	s.handleAPI("/api/query", s.handleQuery)
	s.handleAPI("/api/suggest", s.handleSuggest)
	s.handleAPI("/api/explore", s.handleExplore)
	s.handleAPI("/api/drill", s.handleDrill)
	s.handleAPI("/api/ingest", s.handleIngest)
	s.registerDebugEndpoints()
	s.wireAdmissionMetrics()
	s.wireSLOMetrics()
	s.wireRuntimeMetrics()
	return s
}

// handleAPI registers a query-executing handler under POST route, in
// the request lifecycle layer: the request's trace (its root span named
// for the route's operation, "/api/query" → "query"; folded when the
// response's status is written — see responseWriter), whose clock the
// middleware times the request by, admission control (shed with 503 +
// Retry-After when saturated), the per-request deadline, and the
// queue_wait span. The request ID — the client's X-Request-ID or a
// generated one — is echoed on the response and stamped on the trace
// and the access log line, to match all three.
func (s *Server) handleAPI(route string, h http.HandlerFunc) {
	op := strings.TrimPrefix(route, "/api/")
	s.mux.HandleFunc("POST "+route, func(w http.ResponseWriter, r *http.Request) {
		tr := s.rec.Start(route, op, requestID(r))
		w.Header().Set(requestIDHeader, tr.ID())
		rw := &responseWriter{ResponseWriter: w, s: s, tr: tr}
		defer s.observe(r, route, rw, tr.Start())
		release, wait, admitted := s.adm.acquire(r.Context())
		if wait > 0 {
			tr.Root().AddTimed("queue_wait", wait)
		}
		if !admitted {
			s.reg.Counter("kdap_requests_shed_total",
				"API requests shed by admission control (in-flight cap and queue full or wait expired).",
				"route", route).Inc()
			tr.Finish(http.StatusServiceUnavailable, telemetry.DispositionShed, errShed)
			rw.Header().Set("Retry-After", "1")
			writeError(rw, http.StatusServiceUnavailable, "server at capacity, retry later")
			return
		}
		defer release()
		ctx := tr.Context(r.Context())
		if s.opts.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
			defer cancel()
		}
		h(rw, r.WithContext(ctx))
	})
}

// writePipelineError maps a pipeline error to its HTTP response: a
// cancelled client context becomes 499 (the de-facto "client closed
// request" code), an expired deadline 504, anything else the fallback
// status. Context-ended requests also bump the per-route cancellation
// counter. The request's trace is sealed here with the error and its
// disposition (Finish is first-call-wins, so the lifecycle layer's fold
// keeps what this records).
func (s *Server) writePipelineError(w http.ResponseWriter, r *http.Request, route string, err error, fallback int) {
	tr := telemetry.FromContext(r.Context())
	var status int
	var reason string
	switch {
	case errors.Is(err, context.Canceled):
		status, reason = 499, "cancelled"
		tr.Finish(status, telemetry.DispositionCancelled, err)
	case errors.Is(err, context.DeadlineExceeded):
		status, reason = http.StatusGatewayTimeout, "deadline"
		tr.Finish(status, telemetry.DispositionDeadline, err)
	default:
		tr.Finish(fallback, telemetry.DispositionError, err)
		writeError(w, fallback, err.Error())
		return
	}
	s.reg.Counter("kdap_requests_cancelled_total",
		"API requests ended by context cancellation or deadline, by route and reason.",
		"route", route, "reason", reason).Inc()
	writeError(w, status, err.Error())
}

// SetLogger replaces the access logger (default slog.Default()).
func (s *Server) SetLogger(l *slog.Logger) { s.logger = l }

// Registry returns the server's metrics registry, for callers that
// want to register process-level series alongside the engine metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- DTOs ---

// InterpretationDTO is one ranked star net in a query response.
type InterpretationDTO struct {
	Rank      int           `json:"rank"`
	Score     float64       `json:"score"`
	Signature string        `json:"signature"`
	Groups    []HitGroupDTO `json:"groups"`
}

// HitGroupDTO is one hit group of an interpretation.
type HitGroupDTO struct {
	Table  string   `json:"table"`
	Attr   string   `json:"attr"`
	Role   string   `json:"role"`
	Alias  string   `json:"alias"`
	Phrase string   `json:"phrase,omitempty"`
	Values []string `json:"values"`
}

// QueryResponse answers /api/query. Trace is present only when the
// request carried ?trace=1; Profile (the request's wide event) only
// behind ?profile=1.
type QueryResponse struct {
	Session         string              `json:"session"`
	Query           string              `json:"query"`
	Interpretations []InterpretationDTO `json:"interpretations"`
	Trace           *telemetry.SpanJSON `json:"trace,omitempty"`
	Profile         *telemetry.Event    `json:"profile,omitempty"`
}

// FacetsDTO answers /api/explore. Trace is present only when the
// request carried ?trace=1.
type FacetsDTO struct {
	SubspaceSize   int                  `json:"subspaceSize"`
	TotalAggregate float64              `json:"totalAggregate"`
	Dimensions     []DimensionFacetsDTO `json:"dimensions"`
	// Partial marks a deadline-degraded response (see
	// exploreRequest.Partial).
	Partial bool                `json:"partial,omitempty"`
	Trace   *telemetry.SpanJSON `json:"trace,omitempty"`
	Profile *telemetry.Event    `json:"profile,omitempty"`
}

// DimensionFacetsDTO is one dimension's facets.
type DimensionFacetsDTO struct {
	Dimension  string         `json:"dimension"`
	Hitted     bool           `json:"hitted"`
	Attributes []AttrFacetDTO `json:"attributes"`
}

// AttrFacetDTO is one facet attribute.
type AttrFacetDTO struct {
	Table     string        `json:"table"`
	Attr      string        `json:"attr"`
	Role      string        `json:"role"`
	Score     float64       `json:"score"`
	Promoted  bool          `json:"promoted"`
	Numeric   bool          `json:"numeric"`
	Instances []InstanceDTO `json:"instances"`
}

// InstanceDTO is one facet entry.
type InstanceDTO struct {
	Label     string  `json:"label"`
	Lo        float64 `json:"lo,omitempty"`
	Hi        float64 `json:"hi,omitempty"`
	Aggregate float64 `json:"aggregate"`
	Score     float64 `json:"score"`
}

// --- handlers ---

func (s *Server) handleWarehouses(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.engines))
	for name := range s.engines {
		names = append(names, name)
	}
	slices.Sort(names)
	writeJSON(w, http.StatusOK, map[string][]string{"warehouses": names})
}

type queryRequest struct {
	DB    string `json:"db"`
	Q     string `json:"q"`
	Limit int    `json:"limit"`
}

// maxQueryLimit caps how many interpretations a query response carries.
const maxQueryLimit = 50

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	tr := telemetry.FromContext(r.Context())
	tr.Describe(req.DB, req.Q)
	e, ok := s.engines[req.DB]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown warehouse %q", req.DB))
		return
	}
	limit := req.Limit
	if limit <= 0 || limit > maxQueryLimit {
		limit = 20
	}
	// The engine is deterministic, so (warehouse, ingest sequence,
	// limit, canonical query) fully identify the interpretation list —
	// enough for a weak ETag checked before the pipeline runs. Any
	// streamed append retires every conditional tag, as it retires every
	// cached explore answer. Traced and profiled requests carry
	// per-request payloads and are never revalidated.
	var etag string
	if s.opts.AnswerCacheSize > 0 && !wantTrace(r) && !wantProfile(r) {
		etag = answerETag("query", req.DB,
			strconv.FormatUint(e.IngestSeq(), 10),
			strconv.Itoa(limit), kdapcore.CanonicalQuery(req.Q))
		if notModified(r, etag) {
			writeNotModified(w, tr, etag)
			return
		}
	}
	nets, err := e.DifferentiateCtx(r.Context(), req.Q)
	if err != nil {
		s.writePipelineError(w, r, "/api/query", err, http.StatusBadRequest)
		return
	}
	if len(nets) > limit {
		nets = nets[:limit]
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	w.Header().Set(cacheHeaderName, tr.Cache())
	id := s.putSession(&session{db: req.DB, nets: nets})
	resp := QueryResponse{Session: id, Query: req.Q}
	resp.Trace, resp.Profile = inlineRecord(r, tr)
	for i, sn := range nets {
		dto := InterpretationDTO{Rank: i + 1, Score: sn.Score, Signature: sn.DomainSignature()}
		for _, bg := range sn.Groups {
			g := HitGroupDTO{
				Table: bg.Group.Table, Attr: bg.Group.Attr,
				Role: bg.Path.Role, Alias: bg.Alias(), Phrase: bg.Group.Phrase,
			}
			for _, h := range bg.Group.Hits {
				g.Values = append(g.Values, h.Value.Text())
			}
			dto.Groups = append(dto.Groups, g)
		}
		resp.Interpretations = append(resp.Interpretations, dto)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSuggest returns "did you mean" corrections for the query's
// unmatched keywords.
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !readJSON(w, r, &req) {
		return
	}
	e, ok := s.engines[req.DB]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown warehouse %q", req.DB))
		return
	}
	telemetry.FromContext(r.Context()).Describe(req.DB, req.Q)
	writeJSON(w, http.StatusOK, map[string]any{
		"suggestions": e.SuggestKeywords(req.Q, 3),
	})
}

type exploreRequest struct {
	Session       string `json:"session"`
	Pick          int    `json:"pick"`
	Mode          string `json:"mode"`
	TopKAttrs     int    `json:"topKAttrs"`
	TopKInstances int    `json:"topKInstances"`
	// Buckets and DisplayIntervals override the numeric-facet interval
	// counts (§5.2.2 / §5.3.2); zero keeps the defaults.
	Buckets          int `json:"buckets"`
	DisplayIntervals int `json:"displayIntervals"`
	// Partial opts into the degraded "best facets so far" response when
	// the per-request deadline fires during attribute scoring.
	Partial bool `json:"partial"`
}

// Client-supplied explore parameters are clamped to these maxima so a
// hostile body cannot force huge allocations (a million-bucket
// histogram per numeric attribute, say) through a public endpoint.
const (
	maxTopKAttrs        = 32
	maxTopKInstances    = 256
	maxBuckets          = 1000
	maxDisplayIntervals = 64
)

// validateExploreParams rejects out-of-range explore parameters,
// naming the offending field. Zero means "use the default" for every
// field, so only positives are range-checked and negatives are always
// rejected.
func validateExploreParams(req *exploreRequest) error {
	for _, f := range []struct {
		name string
		val  int
		max  int
	}{
		{"topKAttrs", req.TopKAttrs, maxTopKAttrs},
		{"topKInstances", req.TopKInstances, maxTopKInstances},
		{"buckets", req.Buckets, maxBuckets},
		{"displayIntervals", req.DisplayIntervals, maxDisplayIntervals},
	} {
		if f.val < 0 || f.val > f.max {
			return fmt.Errorf("%s out of range: %d (allowed 0..%d)", f.name, f.val, f.max)
		}
	}
	return nil
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req exploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := validateExploreParams(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	e, sn, db, ok := s.resolve(w, req.Session, req.Pick)
	if !ok {
		return
	}
	tr := telemetry.FromContext(r.Context())
	tr.Describe(db, sn.DomainSignature())
	opts := kdapcore.DefaultExploreOptions()
	opts.Parallel = true
	switch req.Mode {
	case "", "surprise":
	case "bellwether":
		opts.Mode = kdapcore.Bellwether
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q", req.Mode))
		return
	}
	if req.TopKAttrs > 0 {
		opts.TopKAttrs = req.TopKAttrs
	}
	if req.TopKInstances > 0 {
		opts.TopKInstances = req.TopKInstances
	}
	if req.Buckets > 0 {
		opts.Buckets = req.Buckets
	}
	if req.DisplayIntervals > 0 {
		opts.DisplayIntervals = req.DisplayIntervals
	}
	opts.PartialOnDeadline = req.Partial
	// Same revalidation contract as /api/query: the explore cache key +
	// ingest sequence determine the facets, so an unchanged answer is a
	// 304 without running the pipeline, and any append retires the tag.
	var etag string
	if s.opts.AnswerCacheSize > 0 && !wantTrace(r) && !wantProfile(r) {
		if key, cacheable := kdapcore.ExploreCacheKey(sn, opts); cacheable {
			etag = answerETag("explore", db,
				strconv.FormatUint(e.IngestSeq(), 10), key)
			if notModified(r, etag) {
				writeNotModified(w, tr, etag)
				return
			}
		}
	}
	f, err := e.ExploreCtx(r.Context(), sn, opts)
	if err != nil {
		s.writePipelineError(w, r, "/api/explore", err, http.StatusUnprocessableEntity)
		return
	}
	// A deadline-degraded body must never be revalidated into
	// permanence: no ETag on partial responses.
	if etag != "" && !f.Partial {
		w.Header().Set("ETag", etag)
	}
	w.Header().Set(cacheHeaderName, tr.Cache())
	dto := facetsDTO(f)
	dto.Trace, dto.Profile = inlineRecord(r, tr)
	writeJSON(w, http.StatusOK, dto)
}

// inlineRecord returns what a successful request asked to carry of its
// own record: the span tree behind ?trace=1, the wide event behind
// ?profile=1. An inline event seals the trace first, so it shows the
// final disposition (the flight-recorder copy is the same fold).
func inlineRecord(r *http.Request, tr *telemetry.Trace) (*telemetry.SpanJSON, *telemetry.Event) {
	var ev *telemetry.Event
	if wantProfile(r) {
		tr.Finish(http.StatusOK, telemetry.DispositionOK, nil)
		ev = tr.Event()
	}
	if wantTrace(r) {
		return tr.JSON(), ev
	}
	return nil, ev
}

// wantTrace reports whether the request asked for its span tree
// (?trace=1).
func wantTrace(r *http.Request) bool {
	return queryFlag(r, "trace")
}

// wantProfile reports whether the request asked for its wide event
// inline (?profile=1).
func wantProfile(r *http.Request) bool {
	return queryFlag(r, "profile")
}

func queryFlag(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

type drillRequest struct {
	Session string `json:"session"`
	Pick    int    `json:"pick"`
	Table   string `json:"table"`
	Attr    string `json:"attr"`
	Role    string `json:"role"`
	// Value drills into a categorical instance…
	Value string `json:"value"`
	// …or Lo/Hi (with Numeric true) into a numeric range.
	Numeric bool    `json:"numeric"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}

func (s *Server) handleDrill(w http.ResponseWriter, r *http.Request) {
	var req drillRequest
	if !readJSON(w, r, &req) {
		return
	}
	e, sn, db, ok := s.resolve(w, req.Session, req.Pick)
	if !ok {
		return
	}
	telemetry.FromContext(r.Context()).Describe(db, "")
	attr := schemagraph.AttrRef{Table: req.Table, Attr: req.Attr}
	var drilled *kdapcore.StarNet
	var err error
	if req.Numeric {
		drilled, err = e.DrillRange(sn, attr, req.Role, req.Lo, req.Hi)
	} else {
		drilled, err = e.Drill(sn, attr, req.Role, relation.String(req.Value))
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := s.putSession(&session{db: db, nets: []*kdapcore.StarNet{drilled}})
	writeJSON(w, http.StatusOK, map[string]string{"session": id})
}

// resolve looks up a session and 1-based interpretation pick. The
// lookup doubles as the CLOCK touch that keeps active sessions alive
// under the store cap.
func (s *Server) resolve(w http.ResponseWriter, sessionID string, pick int) (*kdapcore.Engine, *kdapcore.StarNet, string, bool) {
	sess, ok := s.sessions.Get(sessionID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session")
		return nil, nil, "", false
	}
	if pick < 1 || pick > len(sess.nets) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("pick out of range 1..%d", len(sess.nets)))
		return nil, nil, "", false
	}
	return s.engines[sess.db], sess.nets[pick-1], sess.db, true
}

func (s *Server) putSession(sess *session) string {
	id := "s" + strconv.FormatUint(s.nextID.Add(1), 36)
	s.sessions.Put(id, sess)
	return id
}

func facetsDTO(f *kdapcore.Facets) FacetsDTO {
	out := FacetsDTO{
		SubspaceSize: f.SubspaceSize, TotalAggregate: f.TotalAggregate,
		Partial: f.Partial,
	}
	for _, d := range f.Dimensions {
		dd := DimensionFacetsDTO{Dimension: d.Dimension, Hitted: d.Hitted}
		for _, a := range d.Attributes {
			score := a.Score
			if math.IsInf(score, 0) || math.IsNaN(score) {
				// JSON has no Inf; promoted facets carry their rank in
				// the Promoted flag instead.
				score = 0
			}
			ad := AttrFacetDTO{
				Table: a.Attr.Table, Attr: a.Attr.Attr, Role: a.Role,
				Score: score, Promoted: a.Promoted, Numeric: a.Numeric,
			}
			for _, inst := range a.Instances {
				ad.Instances = append(ad.Instances, InstanceDTO{
					Label: inst.Label, Lo: inst.Lo, Hi: inst.Hi,
					Aggregate: inst.Aggregate, Score: inst.Score,
				})
			}
			dd.Attributes = append(dd.Attributes, ad)
		}
		out.Dimensions = append(out.Dimensions, dd)
	}
	return out
}

// --- JSON plumbing ---

func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
