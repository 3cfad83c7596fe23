package server

// HTTP observability: the request middleware (counters, latency
// histograms, structured access logs), the /metrics · /debug/pprof ·
// /debug/vars endpoints, and the wiring of each warehouse's series into
// the per-server metrics registry: func-backed series over what an
// engine's caches, tables and pager keep themselves, and the counters a
// finished request's trace is folded into (complete, profilehttp.go).

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"kdap/internal/cache"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// statusRecorder captures the response status code for the request
// counters and the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// handle registers h under pattern, wrapped in the telemetry
// middleware: per-route request counters by status code, a request
// latency histogram, an error counter, and a structured access log
// line per request.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		dur := time.Since(start)
		s.reg.Counter("kdap_http_requests_total",
			"HTTP requests by route and status code.",
			"route", route, "code", fmt.Sprint(sr.status)).Inc()
		s.reg.Histogram("kdap_http_request_seconds",
			"HTTP request latency by route.", nil,
			"route", route).Observe(dur.Seconds())
		if sr.status >= 400 {
			s.reg.Counter("kdap_http_errors_total",
				"HTTP error responses (status >= 400) by route.",
				"route", route).Inc()
		}
		s.logger.Info("request",
			"method", r.Method,
			"route", route,
			"path", r.URL.Path,
			"status", sr.status,
			"duration_ms", float64(dur.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// wireAdmissionMetrics registers the request-lifecycle series: the
// session store's CLOCK counters (kdap_session_*, deliberately a
// separate family from kdap_cache_* whose series carry a db label) and
// the admission controller's live gauges. The shed and cancelled
// counters are created lazily at their increment sites.
func (s *Server) wireAdmissionMetrics() {
	s.reg.CounterFunc("kdap_session_hits_total",
		"Session store lookups that found a live session.",
		func() float64 { return float64(s.sessions.Stats().Hits) })
	s.reg.CounterFunc("kdap_session_misses_total",
		"Session store lookups that missed (expired or unknown IDs).",
		func() float64 { return float64(s.sessions.Stats().Misses) })
	s.reg.CounterFunc("kdap_session_evictions_total",
		"Sessions evicted by the CLOCK sweep at the store cap.",
		func() float64 { return float64(s.sessions.Stats().Evictions) })
	s.reg.GaugeFunc("kdap_sessions_live",
		"Sessions currently held in the store.",
		func() float64 { return float64(s.sessions.Stats().Len) })
	s.reg.GaugeFunc("kdap_requests_inflight",
		"API requests currently admitted and executing.",
		func() float64 { return float64(s.adm.inflight()) })
	s.reg.GaugeFunc("kdap_requests_queued",
		"API requests waiting for an admission slot.",
		func() float64 { return float64(s.adm.queued()) })
}

// factCounters are one warehouse's counters indexed by the trace fact
// each one totals; nil where a fact has no series.
type factCounters [telemetry.NumFacts]*telemetry.Counter

// wireFactCounters resolves, once, the counters every finished request
// of warehouse db adds its trace's counts to.
func (s *Server) wireFactCounters(db string, e *kdapcore.Engine) {
	fc := new(factCounters)
	for _, c := range []struct {
		fact       telemetry.Fact
		name, help string
		labels     []string
	}{
		{telemetry.GroupBys, "kdap_olap_groupby_total", "OLAP groupby calls.", nil},
		{telemetry.Aggregates, "kdap_olap_aggregate_total", "OLAP aggregate calls.", nil},
		{telemetry.ParallelScans, "kdap_olap_scans_total", "Fused scan+aggregate kernel invocations by mode.", []string{"mode", "parallel"}},
		{telemetry.SerialScans, "kdap_olap_scans_total", "Fused scan+aggregate kernel invocations by mode.", []string{"mode", "serial"}},
		{telemetry.KernelStripes, "kdap_olap_kernel_chunks_total", "Worker chunks fanned out by parallel kernels.", nil},
		{telemetry.CodeColumnBuilds, "kdap_olap_column_builds_total", "Cold fact-aligned column materializations by kind.", []string{"kind", "code"}},
		{telemetry.FloatColumnBuilds, "kdap_olap_column_builds_total", "Cold fact-aligned column materializations by kind.", []string{"kind", "float"}},
		// The planner's verdict, in segments, for resident and backed
		// fact tables alike.
		{telemetry.SegmentsScanned, "kdap_segments_scanned_total", "Fact-table segments the row-space planner let through to a scan, by warehouse.", nil},
		{telemetry.SegmentsSkippedBits, "kdap_segments_skipped_bits_total", "Segments skipped because a constraint bitset has no member in the segment's rows, by warehouse.", nil},
		// A space's distributions live and die with its subspace_rows
		// entry: lookups only. A hit is a scan adopted, not run.
		{telemetry.SharedScans, "kdap_cache_hits_total", "Clock cache hits by cache and warehouse.", []string{"cache", "distributions"}},
		{telemetry.DistFills, "kdap_cache_misses_total", "Clock cache misses by cache and warehouse.", []string{"cache", "distributions"}},
	} {
		fc[c.fact] = s.reg.Counter(c.name, c.help, append(c.labels, "db", db)...)
	}
	// A backed table's value-lookup scans skip segments on the same zone
	// evidence outside the planner; the store counts those and they fold
	// into the planner's family.
	zone := new(telemetry.Counter)
	fc[telemetry.SegmentsSkippedZone] = zone
	lookupZoneSkips := func() int64 { return 0 }
	fact := e.Graph().DB().Table(e.Graph().FactTable())
	if sst, ok := fact.Pager().(interface{ Stats() persist.SegStats }); ok {
		lookupZoneSkips = func() int64 { return sst.Stats().SkippedZone }
	}
	s.reg.CounterFunc("kdap_segments_skipped_zone_total",
		"Segments skipped because the per-segment zone map missed the predicate's bound interval, by warehouse.",
		func() float64 { return float64(zone.Value() + lookupZoneSkips()) }, "db", db)
	s.facts[db] = fc
}

// wireEngineMetrics bridges one warehouse engine's self-maintained
// state into the registry as func-backed series labeled by db.
func (s *Server) wireEngineMetrics(db string, e *kdapcore.Engine) {
	for _, c := range []struct {
		name string
		fn   func() cache.Stats
	}{
		{"subspace_rows", e.RowsCacheStats},
		{"constraint", e.Executor().ConstraintCacheStats},
	} {
		fn := c.fn
		s.reg.CounterFunc("kdap_cache_hits_total",
			"Clock cache hits by cache and warehouse.",
			func() float64 { return float64(fn().Hits) }, "cache", c.name, "db", db)
		s.reg.CounterFunc("kdap_cache_misses_total",
			"Clock cache misses by cache and warehouse.",
			func() float64 { return float64(fn().Misses) }, "cache", c.name, "db", db)
		s.reg.CounterFunc("kdap_cache_evictions_total",
			"Clock cache evictions by cache and warehouse.",
			func() float64 { return float64(fn().Evictions) }, "cache", c.name, "db", db)
	}
	s.wireFactCounters(db, e)

	s.reg.RegisterHistogram("kdap_fulltext_probe_seconds",
		"Full-text index probe latency (Search and SearchPhrase).",
		e.Index().ProbeHistogram(), "db", db)

	for _, tn := range e.Graph().DB().TableNames() {
		t := e.Graph().DB().Table(tn)
		s.reg.GaugeFunc("kdap_table_resident_bytes",
			"Bytes of in-memory column storage per table (a disk-backed table's open segment and dictionaries), computed from column lengths; hash indexes and derived caches not counted.",
			func() float64 { return float64(t.ResidentBytes()) }, "db", db, "table", tn)
	}
	for _, k := range []struct {
		kind string
		of   func(olap.ResidentBytes) int64
	}{
		{"code_vectors", func(b olap.ResidentBytes) int64 { return b.CodeVectors }},
		{"fact_to_dim", func(b olap.ResidentBytes) int64 { return b.FactToDim }},
		{"attr_floats", func(b olap.ResidentBytes) int64 { return b.AttrFloats }},
	} {
		s.reg.GaugeFunc("kdap_executor_resident_bytes",
			"Bytes of fact-aligned columns the executor has derived and memoized, by kind, computed from slice lengths and element widths.",
			func() float64 { return float64(k.of(e.Executor().ResidentBytes())) }, "kind", k.kind, "db", db)
	}
	s.reg.GaugeFunc("kdap_warehouse_fact_rows",
		"Fact table row count per warehouse (live — it grows under streaming ingest).",
		func() float64 { return float64(e.Executor().FactLen()) }, "db", db)

	ist := e.IngestStats
	s.reg.CounterFunc("kdap_ingest_batches_total",
		"Ingest batches accepted by the engine's append path, by warehouse.",
		func() float64 { return float64(ist().Batches) }, "db", db)
	s.reg.CounterFunc("kdap_ingest_rows_total",
		"Fact rows appended by streaming ingest, by warehouse.",
		func() float64 { return float64(ist().Rows) }, "db", db)
	s.reg.CounterFunc("kdap_ingest_new_terms_total",
		"Full-text terms first seen in an ingest batch, by warehouse.",
		func() float64 { return float64(ist().NewTerms) }, "db", db)
	s.reg.CounterFunc("kdap_ingest_answers_evicted_total",
		"Cached answers an ingest batch retired (every explore answer; every differentiate answer when the batch added new terms), by warehouse.",
		func() float64 { return float64(ist().EvictedAnswers) }, "db", db)
	s.reg.CounterFunc("kdap_ingest_answers_kept_total",
		"Cached answers of either phase that survived an ingest batch, by warehouse.",
		func() float64 { return float64(ist().KeptAnswers) }, "db", db)

	if s.opts.AnswerCacheSize > 0 {
		for _, p := range []struct {
			phase string
			fn    func() cache.AnswerStats
		}{
			{"differentiate", func() cache.AnswerStats { d, _, _ := e.AnswerCacheStats(); return d }},
			{"explore", func() cache.AnswerStats { _, x, _ := e.AnswerCacheStats(); return x }},
		} {
			fn := p.fn
			s.reg.CounterFunc("kdap_answer_cache_hits_total",
				"Answer cache hits by phase and warehouse.",
				func() float64 { return float64(fn().Hits) }, "phase", p.phase, "db", db)
			s.reg.CounterFunc("kdap_answer_cache_misses_total",
				"Answer cache misses by phase and warehouse.",
				func() float64 { return float64(fn().Misses) }, "phase", p.phase, "db", db)
			s.reg.CounterFunc("kdap_answer_cache_evictions_total",
				"Answer cache evictions (capacity, TTL expiry, and version-stamp invalidation) by phase and warehouse.",
				func() float64 { return float64(fn().Evictions) }, "phase", p.phase, "db", db)
			s.reg.GaugeFunc("kdap_answer_cache_entries",
				"Answers currently stored, by phase and warehouse.",
				func() float64 { return float64(fn().Len) }, "phase", p.phase, "db", db)
			s.reg.GaugeFunc("kdap_answer_cache_bytes",
				"Estimated resident bytes of stored answers, by phase and warehouse.",
				func() float64 { return float64(fn().Bytes) }, "phase", p.phase, "db", db)
		}
	}
}

// wireSegmentMetrics bridges a paged fact table's pager counters into
// the registry, labeled by warehouse. The pager is matched structurally
// so the server stays agnostic of the concrete store type; pagers
// without stats register nothing.
func (s *Server) wireSegmentMetrics(db string, p relation.Pager) {
	st, ok := p.(interface{ Stats() persist.SegStats })
	if !ok {
		return
	}
	s.reg.CounterFunc("kdap_segments_resident_total",
		"Segment reads served from the resident page cache, by warehouse.",
		func() float64 { return float64(st.Stats().Resident) }, "db", db)
	s.reg.CounterFunc("kdap_segments_paged_in_total",
		"Segment pages read from disk into the cache, by warehouse.",
		func() float64 { return float64(st.Stats().PagedIn) }, "db", db)
	s.reg.CounterFunc("kdap_segments_evicted_total",
		"Segment pages evicted to stay under the cache budget, by warehouse.",
		func() float64 { return float64(st.Stats().Evicted) }, "db", db)
	s.reg.CounterFunc("kdap_segments_skipped_bloom_total",
		"Segments a value lookup skipped on membership evidence (a per-segment Bloom filter or a full-text value's segment list ruled every probed value out), by warehouse.",
		func() float64 { return float64(st.Stats().SkippedBloom) }, "db", db)
}

// registerDebugEndpoints mounts /metrics, the pprof profile handlers,
// and the expvar dump. These bypass the access-log middleware on
// purpose — scrapes every few seconds would drown the log.
func (s *Server) registerDebugEndpoints() {
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
}

// wireRuntimeMetrics registers the Go runtime gauges the SLO runbook
// leans on (is the process GC-bound or goroutine-leaking?). MemStats
// reads stop the world briefly, so one read is cached and shared across
// the gauges for up to memStatsMaxAge — scrape-rate staleness, not
// request-rate cost.
func (s *Server) wireRuntimeMetrics() {
	const memStatsMaxAge = 500 * time.Millisecond
	var mu sync.Mutex
	var last time.Time
	var ms runtime.MemStats
	read := func() runtime.MemStats {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(last) > memStatsMaxAge {
			runtime.ReadMemStats(&ms)
			last = time.Now()
		}
		return ms
	}
	s.reg.GaugeFunc("kdap_go_goroutines",
		"Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("kdap_go_heap_alloc_bytes",
		"Bytes of live heap objects (MemStats.HeapAlloc, cached up to 500ms).",
		func() float64 { return float64(read().HeapAlloc) })
	s.reg.CounterFunc("kdap_go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time.",
		func() float64 { return float64(read().PauseTotalNs) / 1e9 })
	s.reg.CounterFunc("kdap_go_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return float64(read().NumGC) })
}

// buildVersion reports the module version and VCS revision baked into
// the binary, "devel" under plain go test.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	version := bi.Main.Version
	if version == "" || version == "(devel)" {
		version = "devel"
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && len(kv.Value) >= 7 {
			return version + "+" + kv.Value[:7]
		}
	}
	return version
}

// HealthResponse answers GET /healthz: liveness plus enough build and
// warehouse detail to identify what is running.
type HealthResponse struct {
	Status     string         `json:"status"`
	Version    string         `json:"version"`
	GoVersion  string         `json:"goVersion"`
	UptimeSecs float64        `json:"uptimeSecs"`
	Warehouses map[string]int `json:"warehouses"` // name → fact rows
	// ResidentBytes is each warehouse's resident column storage, summed
	// over its tables (kdap_table_resident_bytes has the per-table split).
	ResidentBytes map[string]int64 `json:"residentBytes"`
	// ExecutorBytes is what each warehouse's executor has derived on top
	// of that: the kdap_executor_resident_bytes gauges.
	ExecutorBytes map[string]olap.ResidentBytes `json:"executorBytes"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Row counts are read live from each engine: streaming ingest grows
	// them.
	rows := make(map[string]int, len(s.engines))
	resident := make(map[string]int64, len(s.engines))
	derived := make(map[string]olap.ResidentBytes, len(s.engines))
	for name, e := range s.engines {
		rows[name] = e.Executor().FactLen()
		derived[name] = e.Executor().ResidentBytes()
		db := e.Graph().DB()
		for _, tn := range db.TableNames() {
			resident[name] += db.Table(tn).ResidentBytes()
		}
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Version:       buildVersion(),
		GoVersion:     runtime.Version(),
		UptimeSecs:    time.Since(s.start).Seconds(),
		Warehouses:    rows,
		ResidentBytes: resident,
		ExecutorBytes: derived,
	})
}
