package server

// HTTP observability: the request middleware (counters, latency
// histograms, structured access logs), the /metrics · /debug/pprof ·
// /debug/vars endpoints, and the wiring that bridges engine-side
// counters (caches, kernels, full-text probes) into the per-server
// metrics registry. Everything reads from instruments the hot paths
// already maintain; exposition cost is paid only when /metrics is
// scraped.

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

// observeStages folds a finished trace's per-stage durations into the
// kdap_stage_seconds histograms, so /metrics carries pipeline-stage
// latency whether or not the client asked for the span tree.
func (s *Server) observeStages(tr *telemetry.Trace) {
	for stage, d := range tr.Stages() {
		s.reg.Histogram("kdap_stage_seconds",
			"KDAP pipeline stage latency (differentiate and explore sub-stages).",
			nil, "stage", stage).Observe(d.Seconds())
	}
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

// wireEngineMetrics bridges one warehouse engine's self-maintained
// counters into the registry as func-backed series labeled by db.
func (s *Server) wireEngineMetrics(db string, e *kdapcore.Engine) {
	for _, c := range []struct {
		name  string
		fn    func() cache.Stats
		evict bool
	}{
		{"subspace_rows", e.RowsCacheStats, true},
		{"constraint", e.Executor().ConstraintCacheStats, true},
		// A space's distributions live and die with its subspace_rows
		// entry: lookups only. A hit is a scan adopted, not run.
		{"distributions", e.DistributionStats, false},
	} {
		fn := c.fn
		s.reg.CounterFunc("kdap_cache_hits_total",
			"Clock cache hits by cache and warehouse.",
			func() float64 { return float64(fn().Hits) }, "cache", c.name, "db", db)
		s.reg.CounterFunc("kdap_cache_misses_total",
			"Clock cache misses by cache and warehouse.",
			func() float64 { return float64(fn().Misses) }, "cache", c.name, "db", db)
		if c.evict {
			s.reg.CounterFunc("kdap_cache_evictions_total",
				"Clock cache evictions by cache and warehouse.",
				func() float64 { return float64(fn().Evictions) }, "cache", c.name, "db", db)
		}
	}

	st := e.Executor().Stats
	for _, k := range []struct {
		op, path string
		fn       func() float64
	}{
		{"groupby", "vector", func() float64 { return float64(st().GroupByVec) }},
		{"groupby", "eval", func() float64 { return float64(st().GroupByEval) }},
		{"groupby", "reference", func() float64 { return float64(st().GroupByRef) }},
		{"aggregate", "vector", func() float64 { return float64(st().AggregateVec) }},
		{"aggregate", "eval", func() float64 { return float64(st().AggregateEval) }},
		{"aggregate", "reference", func() float64 { return float64(st().AggregateRef) }},
	} {
		s.reg.CounterFunc("kdap_olap_"+k.op+"_total",
			"OLAP "+k.op+" calls by execution path (columnar vector, per-row eval, row-at-a-time reference).",
			k.fn, "path", k.path, "db", db)
	}
	s.reg.CounterFunc("kdap_olap_scans_total",
		"Fused scan+aggregate kernel invocations by mode.",
		func() float64 { return float64(st().ParallelScans) }, "mode", "parallel", "db", db)
	s.reg.CounterFunc("kdap_olap_scans_total",
		"Fused scan+aggregate kernel invocations by mode.",
		func() float64 { return float64(st().SerialScans) }, "mode", "serial", "db", db)
	s.reg.CounterFunc("kdap_olap_kernel_chunks_total",
		"Worker chunks fanned out by parallel kernels.",
		func() float64 { return float64(st().KernelChunks) }, "db", db)
	s.reg.CounterFunc("kdap_olap_column_builds_total",
		"Cold fact-aligned column materializations by kind.",
		func() float64 { return float64(st().CodeVecBuilds) }, "kind", "code", "db", db)
	s.reg.CounterFunc("kdap_olap_column_builds_total",
		"Cold fact-aligned column materializations by kind.",
		func() float64 { return float64(st().FloatColBuilds) }, "kind", "float", "db", db)

	// The planner's verdict, in segments, for resident and backed fact
	// tables alike. A backed table's value-lookup scans skip segments on
	// the same zone evidence outside the planner; the store counts those
	// and they fold into the same family.
	lookupZoneSkips := func() int64 { return 0 }
	if sst, ok := e.Executor().FactBacking().(interface{ Stats() persist.SegStats }); ok {
		lookupZoneSkips = func() int64 { return sst.Stats().SkippedZone }
	}
	s.reg.CounterFunc("kdap_segments_scanned_total",
		"Fact-table segments the row-space planner let through to a scan, by warehouse.",
		func() float64 { return float64(st().SegmentsScanned) }, "db", db)
	s.reg.CounterFunc("kdap_segments_skipped_zone_total",
		"Segments skipped because the per-segment zone map missed the predicate's bound interval, by warehouse.",
		func() float64 { return float64(st().SegmentsSkippedZone + lookupZoneSkips()) }, "db", db)
	s.reg.CounterFunc("kdap_segments_skipped_bits_total",
		"Segments skipped because a constraint bitset has no member in the segment's rows, by warehouse.",
		func() float64 { return float64(st().SegmentsSkippedBits) }, "db", db)

	s.reg.RegisterHistogram("kdap_fulltext_probe_seconds",
		"Full-text index probe latency (Search and SearchPhrase).",
		e.Index().ProbeHistogram(), "db", db)

	for _, tn := range e.Graph().DB().TableNames() {
		t := e.Graph().DB().Table(tn)
		s.reg.GaugeFunc("kdap_table_resident_bytes",
			"Bytes of resident column storage per table, computed from column lengths (0 for a disk-backed table; hash indexes and derived caches not counted).",
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

	if e.AnswerCacheEnabled() {
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
			s.reg.CounterFunc("kdap_answer_cache_coalesced_total",
				"Requests that waited on an identical in-flight computation and shared its result, by phase and warehouse.",
				func() float64 { return float64(fn().Coalesced) }, "phase", p.phase, "db", db)
			s.reg.GaugeFunc("kdap_answer_cache_entries",
				"Answers currently stored, by phase and warehouse.",
				func() float64 { return float64(fn().Len) }, "phase", p.phase, "db", db)
			s.reg.GaugeFunc("kdap_answer_cache_bytes",
				"Estimated resident bytes of stored answers, by phase and warehouse.",
				func() float64 { return float64(fn().Bytes) }, "phase", p.phase, "db", db)
		}
	}
}

// wireSegmentMetrics bridges a disk-backed fact table's segment store
// counters into the registry, labeled by warehouse. The backing is
// matched structurally so the server stays agnostic of the concrete
// store type; backings without stats register nothing.
func (s *Server) wireSegmentMetrics(db string, b relation.ColumnBacking) {
	st, ok := b.(interface{ Stats() persist.SegStats })
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
		"Segments skipped because a per-segment Bloom filter ruled the probed value out, by warehouse.",
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
	// Row counts are read live from each engine — streaming ingest grows
	// them past the startup snapshot in s.factRows.
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
