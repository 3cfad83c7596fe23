package main

// The qps experiment is the closed-loop throughput ladder: N concurrent
// clients replay the 50-query workload (zipf-skewed popularity, the
// duplication shape real query logs have) against three execution
// stacks —
//
//	serial   in-process, every request does all of its own work
//	batched  in-process, batched execution (no answer cache)
//	http     the full kdapd stack over HTTP: batching + answer cache
//
// — swept over GOMAXPROCS 1/4/16. Every mode replays the exact same
// deterministic request sequence, so the QPS and latency quantiles are
// comparable run to run; the numbers land in BENCH.json and the nightly
// gate holds future changes to them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/kdapcore"
	"kdap/internal/server"
	"kdap/internal/telemetry/profile"
	"kdap/internal/workload"
)

const (
	// qpsClients closed-loop clients stay constant across the
	// GOMAXPROCS sweep: the ladder varies the engine's parallelism, not
	// the offered concurrency.
	qpsClients = 16
	// qpsOps requests per client per run: 256 total per measurement.
	qpsOps = 16
	// qpsZipfExponent skews query popularity toward the head — the
	// shape real query logs have (a few queries dominate, a long tail
	// remains); search-log fits usually land between 1 and 1.5.
	qpsZipfExponent = 1.4
	// qpsBatchWindow is the gather window the batched modes run with.
	qpsBatchWindow = 4 * time.Millisecond
)

// qpsGOMAXPROCS is the sweep axis.
var qpsGOMAXPROCS = []int{1, 4, 16}

// qpsModeResult is one (mode, GOMAXPROCS) measurement.
type qpsModeResult struct {
	QPS   float64 `json:"qps"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// qpsSweepEntry is one GOMAXPROCS rung of the ladder.
type qpsSweepEntry struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	Serial     qpsModeResult `json:"serial"`
	Batched    qpsModeResult `json:"batched"`
	HTTP       qpsModeResult `json:"http"`
	// Speedup is batched QPS over serial QPS — the batching win with
	// the answer cache out of the picture.
	Speedup float64 `json:"batched_over_serial"`
	// SharedScans/SharedAnswers snapshot the batched engine's sharing
	// counters after the run: they explain where the speedup came from.
	SharedScans   int64 `json:"shared_scans"`
	SharedAnswers int64 `json:"shared_answers"`
}

// qpsBench is the BENCH.json qps section.
type qpsBench struct {
	Workload      string          `json:"workload"`
	Clients       int             `json:"clients"`
	OpsPerClient  int             `json:"ops_per_client"`
	ZipfExponent  float64         `json:"zipf_exponent"`
	BatchWindowMs float64         `json:"batch_window_ms"`
	Sweep         []qpsSweepEntry `json:"sweep"`
	// ProfileOverhead pins the cost of always-on per-request wide-event
	// profiling: the top-rung batched measurement re-run with a flight
	// recorder doing Start / context-attach / Complete per request. The
	// nightly gate bounds the p50 overhead at 5%.
	ProfileOverhead *qpsProfileOverhead `json:"profile_overhead,omitempty"`
}

// qpsProfileOverhead is the profiled-vs-unprofiled batched comparison
// at the top GOMAXPROCS rung.
type qpsProfileOverhead struct {
	GOMAXPROCS     int     `json:"gomaxprocs"`
	BaselineQPS    float64 `json:"baseline_qps"`
	BaselineP50Ms  float64 `json:"baseline_p50_ms"`
	ProfiledQPS    float64 `json:"profiled_qps"`
	ProfiledP50Ms  float64 `json:"profiled_p50_ms"`
	OverheadP50Pct float64 `json:"overhead_p50_pct"`
}

// zipfPicks precomputes every client's query-index sequence from a
// fixed seed, so all modes and all GOMAXPROCS rungs replay the
// identical arrival pattern.
func zipfPicks(clients, ops, nq int) [][]int {
	z := rand.NewZipf(rand.New(rand.NewSource(42)), qpsZipfExponent, 1, uint64(nq-1))
	picks := make([][]int, clients)
	for c := range picks {
		picks[c] = make([]int, ops)
		for i := range picks[c] {
			picks[c][i] = int(z.Uint64())
		}
	}
	return picks
}

// closedLoop drives one measurement: each client works through its
// pick sequence back to back, and the wall time of the whole storm
// yields QPS while the per-request latencies yield the quantiles.
func closedLoop(picks [][]int, do func(qi int) error) (qpsModeResult, error) {
	lats, wall, err := closedLoopRun(picks, do)
	if err != nil {
		return qpsModeResult{}, err
	}
	return modeResult(lats, wall), nil
}

// closedLoopRun is the raw form of closedLoop: it returns the per-op
// latencies and the storm's wall time, so callers can pool samples
// across runs before computing quantiles (the overhead rung does).
func closedLoopRun(picks [][]int, do func(qi int) error) ([]time.Duration, time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		lats     = make([]time.Duration, 0, len(picks)*len(picks[0]))
	)
	start := time.Now()
	for c := range picks {
		wg.Add(1)
		go func(seq []int) {
			defer wg.Done()
			local := make([]time.Duration, 0, len(seq))
			for _, qi := range seq {
				t0 := time.Now()
				if err := do(qi); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(picks[c])
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return lats, wall, nil
}

// modeResult folds latency samples and total wall time into the
// QPS/quantile summary.
func modeResult(lats []time.Duration, wall time.Duration) qpsModeResult {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		i := int(float64(len(lats)) * p)
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return float64(lats[i].Nanoseconds()) / 1e6
	}
	return qpsModeResult{
		QPS:   float64(len(lats)) / wall.Seconds(),
		P50Ms: pct(0.50),
		P99Ms: pct(0.99),
	}
}

// emptySubspace recognizes the one expected per-query failure: a few
// workload queries' top interpretation selects no facts, and explore
// reports that. The engine still did the request's work, so the
// closed loop counts it as a completed op in every mode.
func emptySubspace(err error) bool {
	return err != nil && strings.Contains(err.Error(), "empty sub-dataspace")
}

// qpsSerial measures per-request execution: a fresh engine with no
// batching and no answer cache, every request differentiating and
// exploring on its own.
func qpsSerial(wh *dataset.Warehouse, qs []workload.Query, picks [][]int) (qpsModeResult, error) {
	e := experiments.Engine(wh)
	opts := kdapcore.DefaultExploreOptions()
	return closedLoop(picks, func(qi int) error {
		nets, err := e.Differentiate(qs[qi].Text)
		if err != nil {
			return err
		}
		if len(nets) == 0 {
			return fmt.Errorf("qps: %q: no interpretations", qs[qi].Text)
		}
		if _, err = e.Explore(nets[0], opts); emptySubspace(err) {
			return nil
		}
		return err
	})
}

// qpsBatched measures batched execution with the answer cache off:
// gather plus in-flight dedup. (The serial side shares distributions
// through its spaces just as the batched side does.)
func qpsBatched(wh *dataset.Warehouse, qs []workload.Query, picks [][]int) (qpsModeResult, int64, int64, error) {
	lats, wall, scans, answers, err := qpsBatchedRun(wh, qs, picks)
	if err != nil {
		return qpsModeResult{}, 0, 0, err
	}
	return modeResult(lats, wall), scans, answers, nil
}

// qpsBatchedRun is qpsBatched returning raw samples (for pooling).
func qpsBatchedRun(wh *dataset.Warehouse, qs []workload.Query, picks [][]int) ([]time.Duration, time.Duration, int64, int64, error) {
	e := experiments.Engine(wh)
	e.SetBatching(qpsBatchWindow, qpsClients)
	opts := kdapcore.DefaultExploreOptions()
	ctx := context.Background()
	lats, wall, err := closedLoopRun(picks, func(qi int) error {
		nets, _, err := e.DifferentiateBatchedCtx(ctx, qs[qi].Text)
		if err != nil {
			return err
		}
		if len(nets) == 0 {
			return fmt.Errorf("qps: %q: no interpretations", qs[qi].Text)
		}
		if _, _, err = e.ExploreBatchedCtx(ctx, nets[0], opts); emptySubspace(err) {
			return nil
		}
		return err
	})
	st := e.BatchStats()
	return lats, wall, st.SharedScans, st.SharedExplores + st.SharedDifferentiates, err
}

// qpsProfiledRun is qpsBatchedRun with the per-request wide event enabled —
// Recorder.Start, context attach, instrumentation fan-in, Complete —
// exactly the per-request work the server's api() wrapper adds. The
// delta against the plain batched rung is the profiling tax.
func qpsProfiledRun(wh *dataset.Warehouse, qs []workload.Query, picks [][]int) ([]time.Duration, time.Duration, error) {
	e := experiments.Engine(wh)
	e.SetBatching(qpsBatchWindow, qpsClients)
	opts := kdapcore.DefaultExploreOptions()
	rec := profile.NewRecorder(64, 64, 64, 250*time.Millisecond, nil)
	return closedLoopRun(picks, func(qi int) error {
		p := rec.Start("/api/query", "")
		p.SetQuery(qs[qi].Text)
		ctx := profile.NewContext(context.Background(), p)
		fail := func(err error) error {
			rec.Complete(p, 0, profile.DispositionError, err)
			return err
		}
		nets, _, err := e.DifferentiateBatchedCtx(ctx, qs[qi].Text)
		if err != nil {
			return fail(err)
		}
		if len(nets) == 0 {
			return fail(fmt.Errorf("qps: %q: no interpretations", qs[qi].Text))
		}
		if _, _, err = e.ExploreBatchedCtx(ctx, nets[0], opts); err != nil && !emptySubspace(err) {
			return fail(err)
		}
		rec.Complete(p, 200, profile.DispositionOK, nil)
		return nil
	})
}

// qpsOverheadPairs is how many interleaved baseline/profiled run pairs
// the overhead rung pools before computing quantiles.
const qpsOverheadPairs = 5

// qpsOverheadPair measures the overhead comparison. A single 256-op
// batched run's p50 swings by ±15% with scheduler state, so one pair
// (or best-of-N-runs tricks) flakes a 5% gate in either direction. The
// two modes instead run strictly interleaved — baseline, profiled,
// baseline, ... — so slow drift hits both sides equally, and each
// side's per-op latencies are POOLED across all its runs before the
// quantile is taken: 5x the samples, one p50 per mode.
func qpsOverheadPair(wh *dataset.Warehouse, qs []workload.Query, picks [][]int) (baseline, profiled qpsModeResult, err error) {
	var baseLats, profLats []time.Duration
	var baseWall, profWall time.Duration
	for i := 0; i < qpsOverheadPairs; i++ {
		bl, bw, _, _, err := qpsBatchedRun(wh, qs, picks)
		if err != nil {
			return qpsModeResult{}, qpsModeResult{}, err
		}
		pl, pw, err := qpsProfiledRun(wh, qs, picks)
		if err != nil {
			return qpsModeResult{}, qpsModeResult{}, err
		}
		baseLats = append(baseLats, bl...)
		baseWall += bw
		profLats = append(profLats, pl...)
		profWall += pw
	}
	return modeResult(baseLats, baseWall), modeResult(profLats, profWall), nil
}

// qpsHTTP measures the full kdapd stack over loopback HTTP: JSON in
// and out, sessions, admission, batching, and the default answer
// cache — the ladder's production rung.
func qpsHTTP(wh *dataset.Warehouse, qs []workload.Query, picks [][]int) (qpsModeResult, error) {
	opts := server.DefaultOptions()
	opts.SessionCap = 4096
	opts.BatchWindow = qpsBatchWindow
	opts.BatchMax = qpsClients
	srv := server.NewWithOptions(map[string]*dataset.Warehouse{"online": wh}, opts)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tr := &http.Transport{MaxIdleConns: 2 * qpsClients, MaxIdleConnsPerHost: 2 * qpsClients}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	post := func(path string, req, resp any) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(r.Body, 256))
			return fmt.Errorf("qps: %s: HTTP %d: %s", path, r.StatusCode, msg)
		}
		return json.NewDecoder(r.Body).Decode(resp)
	}
	return closedLoop(picks, func(qi int) error {
		var q struct {
			Session string `json:"session"`
		}
		if err := post("/api/query", map[string]any{"db": "online", "q": qs[qi].Text}, &q); err != nil {
			return err
		}
		var f struct {
			SubspaceSize int `json:"subspaceSize"`
		}
		if err := post("/api/explore", map[string]any{"session": q.Session, "pick": 1}, &f); err != nil && !emptySubspace(err) {
			return err
		}
		return nil
	})
}

// computeQPS runs the full ladder and returns the BENCH.json section.
func computeQPS() (qpsBench, error) {
	wh := dataset.AWOnline()
	qs := workload.AWOnlineQueries()
	picks := zipfPicks(qpsClients, qpsOps, len(qs))
	out := qpsBench{
		Workload:      "AW_ONLINE",
		Clients:       qpsClients,
		OpsPerClient:  qpsOps,
		ZipfExponent:  qpsZipfExponent,
		BatchWindowMs: float64(qpsBatchWindow) / float64(time.Millisecond),
	}
	for _, p := range qpsGOMAXPROCS {
		prev := runtime.GOMAXPROCS(p)
		serial, err := qpsSerial(wh, qs, picks)
		if err == nil {
			var batched qpsModeResult
			var scans, answers int64
			if batched, scans, answers, err = qpsBatched(wh, qs, picks); err == nil {
				var httpRes qpsModeResult
				if httpRes, err = qpsHTTP(wh, qs, picks); err == nil {
					out.Sweep = append(out.Sweep, qpsSweepEntry{
						GOMAXPROCS:    p,
						Serial:        serial,
						Batched:       batched,
						HTTP:          httpRes,
						Speedup:       batched.QPS / serial.QPS,
						SharedScans:   scans,
						SharedAnswers: answers,
					})
					// The profiling-overhead rung runs only at the top of
					// the ladder, back-to-back with its baseline so the two
					// share warm-up and scheduling state. Both sides are
					// best-of-two: the true cost per request is a handful of
					// atomic adds, so a single 256-op run is dominated by
					// scheduler noise, and an asymmetric comparison would
					// flake the 5% gate in either direction.
					if p == qpsGOMAXPROCS[len(qpsGOMAXPROCS)-1] {
						var baseline, profiled qpsModeResult
						if baseline, profiled, err = qpsOverheadPair(wh, qs, picks); err == nil {
							out.ProfileOverhead = &qpsProfileOverhead{
								GOMAXPROCS:     p,
								BaselineQPS:    baseline.QPS,
								BaselineP50Ms:  baseline.P50Ms,
								ProfiledQPS:    profiled.QPS,
								ProfiledP50Ms:  profiled.P50Ms,
								OverheadP50Pct: (profiled.P50Ms - baseline.P50Ms) / baseline.P50Ms * 100,
							}
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return qpsBench{}, err
		}
	}
	return out, nil
}

// qpsReport is the -exp qps entry point.
func qpsReport() error {
	fmt.Printf("== Closed-loop QPS ladder: %d clients, %d ops each, zipf %.1f over the 50-query workload ==\n",
		qpsClients, qpsOps, qpsZipfExponent)
	rep, err := computeQPS()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-28s %-28s %-28s %8s\n", "GOMAXPROCS",
		"serial qps (p50/p99 ms)", "batched qps (p50/p99 ms)", "http qps (p50/p99 ms)", "speedup")
	for _, s := range rep.Sweep {
		fmt.Printf("%-10d %8.1f (%6.1f/%7.1f)     %8.1f (%6.1f/%7.1f)     %8.1f (%6.1f/%7.1f)    %6.2fx\n",
			s.GOMAXPROCS,
			s.Serial.QPS, s.Serial.P50Ms, s.Serial.P99Ms,
			s.Batched.QPS, s.Batched.P50Ms, s.Batched.P99Ms,
			s.HTTP.QPS, s.HTTP.P50Ms, s.HTTP.P99Ms,
			s.Speedup)
	}
	if po := rep.ProfileOverhead; po != nil {
		fmt.Printf("profiling overhead @GOMAXPROCS=%d: p50 %.2fms -> %.2fms (%+.1f%%), qps %.1f -> %.1f\n",
			po.GOMAXPROCS, po.BaselineP50Ms, po.ProfiledP50Ms, po.OverheadP50Pct,
			po.BaselineQPS, po.ProfiledQPS)
	}
	return nil
}
