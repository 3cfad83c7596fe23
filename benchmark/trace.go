package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The per-layer numbers come from a serial replay: client 0's seeded
// sessions, a fixed count of them, one operation at a time, so every
// count repeats exactly. Spans are recorded here, in the benchmark's own
// files, around calls into each layer's public functions. The program's
// HTTP handler cannot be opened up from outside, so each layer below the
// server is measured on a mirror engine — built as NewWithOptions builds
// its own and fed the same operations in the same order — right after
// the HTTP operation it mirrors. A child span is therefore a replay that
// runs after its parent, not inside it, and self time subtracts the
// children's durations.

// Layer names are the program's module names.
const (
	layerServer   = "server"
	layerKdapcore = "kdapcore"
	layerFulltext = "fulltext"
	layerOlap     = "olap"
)

// span is one timed call. Spans of one operation share req; parent is
// the id of the span whose work this one is part of (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span over [start, end] and returns its id.
func (r *recorder) add(layer, name string, parent, req int, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a new span.
func (r *recorder) timed(layer, name string, parent, req int, fn func()) int {
	start := time.Now()
	fn()
	return r.add(layer, name, parent, req, start, time.Now())
}

// selfTimes returns, per span id, the span's duration minus its
// children's, never below zero.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// facetAttr is one facet attribute of an explore answer, as the olap
// replay needs it.
type facetAttr struct {
	table, attr, role string
	numeric           bool
}

// mirror replays each operation of the traced pass on an engine of its
// own and records the layer spans.
type mirror struct {
	e   *engine
	rec *recorder
	// Per-session state: the nets of the last query and the drilled net.
	top, drilled *starNet
	// Counts made where the work happens.
	nets, probes, hits, rowsScanned int64
}

// prime brings the mirror to the state the serial oracle pass leaves a
// server in: every query differentiated and its top-1 net explored once.
func (m *mirror) prime(ctx context.Context, queries []wlQuery) {
	for _, q := range queries {
		nets, err := engineDifferentiate(ctx, m.e, q.Text)
		if err == nil && len(nets) > 0 {
			_, _ = engineExplore(ctx, m.e, nets[0]) // an empty sub-dataspace is an answer too
		}
	}
}

// replay mirrors one finished HTTP operation under the span parent.
func (m *mirror) replay(ctx context.Context, o op, text string, parent, req int) error {
	switch {
	case o.kind == opQuery:
		diffHits, _ := mirrorCacheHits(m.e)
		var nets []*starNet
		var err error
		id := m.rec.timed(layerKdapcore, "differentiate", parent, req, func() {
			nets, err = engineDifferentiate(ctx, m.e, text)
		})
		if err != nil || len(nets) == 0 {
			return fmt.Errorf("mirror differentiate %q: %d nets, %v", text, len(nets), err)
		}
		m.top, m.drilled = nets[0], nil
		m.nets += int64(len(nets))
		if after, _ := mirrorCacheHits(m.e); after != diffHits {
			return nil // served from the answer cache: no probe ran
		}
		for _, kw := range strings.Fields(text) {
			var n int
			m.rec.timed(layerFulltext, "search", id, req, func() { n, err = fulltextSearch(ctx, m.e, kw) })
			if err != nil {
				return fmt.Errorf("mirror search %q: %w", kw, err)
			}
			m.probes++
			m.hits += int64(n)
		}
	case o.kind == opExplore:
		sn := m.top
		if o.drilled {
			sn = m.drilled
		}
		_, explHits := mirrorCacheHits(m.e)
		var attrs []facetAttr
		id := m.rec.timed(layerKdapcore, "explore", parent, req, func() { attrs, _ = engineExplore(ctx, m.e, sn) })
		if _, after := mirrorCacheHits(m.e); after != explHits {
			return nil // served from the answer cache: no scan ran
		}
		var rows []int
		var err error
		m.rec.timed(layerOlap, "factrows", id, req, func() { rows, err = olapFactRows(ctx, m.e, sn) })
		if err != nil {
			return fmt.Errorf("mirror factrows: %w", err)
		}
		for _, a := range attrs {
			p, ok := pathFromFact(m.e, a.table, a.role)
			if !ok {
				continue // a fact-table attribute: no join path, no dimension scan
			}
			name, scan := "groupby", olapGroupBy
			if a.numeric {
				name, scan = "series", olapNumericSeries
			}
			m.rec.timed(layerOlap, name, id, req, func() { _, err = scan(ctx, m.e, rows, a.attr, p) })
			if err != nil {
				return fmt.Errorf("mirror %s %s.%s: %w", name, a.table, a.attr, err)
			}
			m.rowsScanned += int64(len(rows))
		}
	case o.kind == opDrill:
		var err error
		m.rec.timed(layerKdapcore, "drill", parent, req, func() {
			if o.attr.Numeric {
				m.drilled, err = engineDrillRange(m.e, m.top, *o.attr, o.inst.Lo, o.inst.Hi)
			} else {
				m.drilled, err = engineDrill(m.e, m.top, *o.attr, o.inst.Label)
			}
		})
		if err != nil {
			return fmt.Errorf("mirror drill: %w", err)
		}
	}
	return nil
}

// pass is one side of the serial replay: a connection to one stack and
// what it has done so far.
type pass struct {
	c    *conn
	ops  []op
	http time.Duration // summed round-trip time
}

// play runs one session over the pass's connection, one operation at a
// time, after sending batch (when non-nil) as the writer would. It
// returns the session's operations.
func (p *pass) play(ctx context.Context, ck *checker, s session, batch *ingestBatch) []op {
	first := len(p.ops)
	emit := func(o op) {
		p.ops = append(p.ops, o)
		p.http += o.end.Sub(o.start)
	}
	if batch != nil {
		o := op{kind: opIngest, start: time.Now()}
		o.ok, o.why = sendBatch(ctx, p.c, *batch)
		o.end = time.Now()
		emit(o)
	}
	runSession(ctx, p.c, s, ck, func() bool { return true }, emit)
	return p.ops[first:]
}

// sessionsPerBatch paces the writer of the serial replay: one batch
// before every third session (an odd number, so that batches fall on both
// sides of the alternation below).
const sessionsPerBatch = 3

// layerReport is what the traced run measured.
type layerReport struct {
	metrics  map[string]float64
	info     map[string]float64
	spanFile string
	ops      []op
}

// meanMs is total nanoseconds over n, in milliseconds.
func meanMs(totalNs int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(totalNs) / float64(n) / 1e6
}

// primedStack serves the workload a second time — over wh, or over facts
// of its own when wh is nil — and runs the oracle pass over it, which
// leaves it in the state the live stack was in before the replay.
func primedStack(ctx context.Context, cfg runConfig, wh *warehouse, queries []wlQuery) (*stack, *oracle, error) {
	st, err := newStack(cfg.w, cfg.facts, wh)
	if err != nil {
		return nil, nil, err
	}
	c := newConn(st.base)
	defer c.close()
	o, err := oraclePass(ctx, c, queries)
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, o, nil
}

// runTraced measures the layers of w. live is the served stack the
// oracle pass already primed.
func runTraced(ctx context.Context, cfg runConfig, live *stack, ck *checker) (*layerReport, error) {
	w := cfg.w
	// The mirror appends what the live server is sent, and so does the
	// unrecorded side: under ingest each needs facts of its own.
	mwh, mtail, offWh := live.wh, live.tail, live.wh
	if w.ingest {
		mwh, mtail = w.build(cfg.facts)
		offWh = nil
	}
	m := &mirror{e: newMirrorEngine(mwh, w.options()), rec: newRecorder()}
	m.prime(ctx, ck.orc.queries)

	var batches []ingestBatch
	if w.ingest {
		n := (w.traceSessions + sessionsPerBatch - 1) / sessionsPerBatch * ingestBatchRows
		if n > len(live.tail) {
			n = len(live.tail)
		}
		batches = encodeBatches(live.tail[:n], factLen(live.wh), ingestBatchRows)
	}

	// The replay runs on two stacks in the same state: the live one with
	// span recording on, and one of its own with recording off. Sessions
	// alternate which side goes first, so that drift (heap growth, the
	// collector's pacing) lands on both alike.
	offStack, offOracle, err := primedStack(ctx, cfg, offWh, ck.orc.queries)
	if err != nil {
		return nil, err
	}
	defer offStack.close()
	if d := ck.orc.diff(offOracle); len(d) > 0 {
		return nil, fmt.Errorf("two serial oracle passes over fresh servers disagree: %s", strings.Join(d, "; "))
	}
	before, err := scrapeMetrics(live.base)
	if err != nil {
		return nil, err
	}
	off, on := &pass{c: newConn(offStack.base)}, &pass{c: newConn(live.base)}
	defer off.c.close()
	defer on.c.close()
	// Allocation is counted around each session of the unrecorded side.
	// Reading the counters stops the world, so the recorded side is
	// bracketed the same way and the two stay comparable.
	var mallocs, pauseNs uint64
	play := func(p *pass, s session, b *ingestBatch) []op {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ops := p.play(ctx, ck, s, b)
		runtime.ReadMemStats(&ms1)
		if p == off {
			mallocs += ms1.Mallocs - ms0.Mallocs
			pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
		return ops
	}
	seq := newSequence(w, cfg.seed, 0, len(ck.orc.queries))
	req := 0
	var onOverOff []float64 // per session: round-trip time recorded over unrecorded
	for i := 0; i < w.traceSessions; i++ {
		s := seq.next()
		var b *ingestBatch
		if k := i / sessionsPerBatch; i%sessionsPerBatch == 0 && k < len(batches) {
			b = &batches[k]
		}
		var ops []op
		offBefore, onBefore := off.http, on.http
		if i%2 == 0 {
			play(off, s, b)
			ops = play(on, s, b)
		} else {
			ops = play(on, s, b)
			play(off, s, b)
		}
		onOverOff = append(onOverOff, (on.http-onBefore).Seconds()/(off.http-offBefore).Seconds())
		// The session is over on both sides: record its spans and replay
		// it on the mirror.
		for _, o := range ops {
			req++
			id := m.rec.add(layerServer, "http "+opNames[o.kind], 0, req, o.start, o.end)
			if !o.ok {
				continue
			}
			if o.kind == opIngest {
				m.rec.timed(layerKdapcore, "append", id, req, func() {
					_, err = engineAppend(ctx, m.e, mtail[b.lo:b.lo+b.rows])
				})
			} else {
				err = m.replay(ctx, o, ck.orc.queries[s.query].Text, id, req)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	after, err := scrapeMetrics(live.base)
	if err != nil {
		return nil, err
	}
	d := before.delta(after)

	rep := &layerReport{ops: append(off.ops, on.ops...)}
	rep.spanFile, err = writeSpans(cfg.outDir, fmt.Sprintf("%s.seed%d.spans.json", w.name, cfg.seed), m.rec.spans)
	if err != nil {
		return nil, err
	}

	// Fold the spans into per-layer figures.
	self := selfTimes(m.rec.spans)
	type acc struct {
		dur, self int64
		n         int
	}
	by := map[string]acc{}
	for _, s := range m.rec.spans {
		k := s.Layer + "." + s.Name
		if strings.HasPrefix(s.Name, "http ") && s.Name != "http ingest" {
			k = "server.http read"
		}
		a := by[k]
		a.dur += s.dur()
		a.self += self[s.ID]
		a.n++
		by[k] = a
	}
	read, ing := by["server.http read"], by["server.http ingest"]
	diff, expl, app := by["kdapcore.differentiate"], by["kdapcore.explore"], by["kdapcore.append"]
	// One factrows replay per explore the mirror computed.
	search, fr := by["fulltext.search"], by["olap.factrows"]
	scans := by["olap.groupby"].dur + by["olap.series"].dur
	rep.metrics = map[string]float64{
		"server_self_ms":        meanMs(read.self, read.n),
		"differentiate_ms":      meanMs(diff.dur, diff.n),
		"explore_ms":            meanMs(expl.dur, expl.n),
		"kdapcore_self_ms":      meanMs(expl.self, expl.n),
		"nets_per_query":        float64(m.nets) / float64(max(diff.n, 1)),
		"fulltext_search_ms":    meanMs(search.dur, search.n),
		"hits_per_probe":        float64(m.hits) / float64(max(m.probes, 1)),
		"factrows_ms":           meanMs(fr.dur, fr.n),
		"groupby_ms":            meanMs(scans, fr.n),
		"rows_scanned":          float64(m.rowsScanned),
		"olap_scans":            d.sum("kdap_olap_scans_total"),
		"append_ms":             meanMs(app.dur, app.n),
		"ingest_decode_self_ms": meanMs(ing.self, ing.n),
		"answer_hit_ratio":      ratio(d.sum("kdap_answer_cache_hits_total"), d.sum("kdap_answer_cache_misses_total")),
		"rows_hit_ratio": ratio(d.sum("kdap_cache_hits_total", `cache="subspace_rows"`),
			d.sum("kdap_cache_misses_total", `cache="subspace_rows"`)),
		"answers_kept_ratio": ratio(d.sum("kdap_ingest_answers_kept_total"), d.sum("kdap_ingest_answers_evicted_total")),
		"allocs_per_op":      float64(mallocs) / float64(max(len(off.ops), 1)),
		"gc_pause_ms":        float64(pauseNs) / 1e6,
		"trace_overhead_pct": 100 * (median(onOverOff) - 1),
	}
	rep.info = map[string]float64{
		"trace_ops":      float64(len(on.ops)),
		"spans":          float64(len(m.rec.spans)),
		"server_http_ms": meanMs(read.dur, read.n),
		"shards_scanned": d.sum("kdap_shards_scanned_total"),
	}
	// What the program says about itself: its own per-stage clock, summed
	// over the pass. Stages of attributes scored in parallel add up, so
	// this is busy time, not elapsed time.
	const stagePrefix = `kdap_stage_seconds_sum{stage="`
	for k, v := range d {
		if strings.HasPrefix(k, stagePrefix) && v > 0 && !strings.HasPrefix(k[len(stagePrefix):], "score ") {
			rep.info["stage_ms."+strings.TrimSuffix(k[len(stagePrefix):], `"}`)] = v * 1e3
		}
	}
	return rep, nil
}
