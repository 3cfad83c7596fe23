// Command benchmark is KDAP's session-level benchmark: it builds a
// workload's warehouse, serves it with the program's own HTTP handler
// behind a loopback listener, drives it through the client package as
// analyst sessions, checks every answer, and prints every metric by
// name with its unit. See README.md.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	w      workload
	seed   int64
	warm   time.Duration
	window time.Duration
	trace  bool
	// probes is how many fresh processes time set-up beside the run's own.
	probes int
	// facts overrides the scaled workloads' fact count (tests).
	facts  int
	outDir string
}

// clientCount is the number of generator connections: one per core up
// to four, since generator and server share the machine.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 0, "measured window in seconds (0: the workload's full window, 30 s; 40 s for scaled1m.drill)")
		trace   = flag.Int("trace", 0, "0: the timed run and the end-to-end metrics; 1: the serial traced replay and the per-layer metrics")
		out     = flag.String("out", "out", "directory for span files")
		jsonOut = flag.String("json", "", "append each run's result to this JSON file (the input of -compare)")
		cmp     = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		probe   = flag.Bool("setup-probe", false, "internal: set up the workload, say so, and exit")
	)
	flag.Parse()

	if *cmp {
		os.Exit(compareFiles(flag.Args()))
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *out, *jsonOut))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *probe {
		st, err := newStack(w, 0, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(probeReady)
		st.close()
		return
	}
	cfg := runConfig{w: w, seed: *seed, window: w.window, trace: *trace != 0, probes: w.probes, outDir: *out}
	if *seconds > 0 {
		cfg.window = time.Duration(*seconds * float64(time.Second))
	}
	// Warm-up is a sixth of the window, as 5 s is of the full 30 s.
	cfg.warm = cfg.window / 6
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if *jsonOut != "" {
		if err := appendResult(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	fmt.Println(res.contractLine())
	if !res.Correct || !res.Valid {
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload and mode, so that
// peak_rss_mb and setup_s are each workload's own.
func runAll(seed int64, seconds float64, out, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", out}
			if jsonOut != "" {
				args = append(args, "-json", jsonOut)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s -trace %s: %v\n", w.name, trace, err)
				code = 1
			}
		}
	}
	return code
}

func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}

// probeReady is the line a set-up probe prints when its server answers.
const probeReady = "servable"

// probeSetup times set-up in a fresh process: from starting it to its
// report that the first request is servable.
func probeSetup(w workload) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-probe", "-workload", w.name)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	took := time.Since(start).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if readErr != nil || strings.TrimSpace(line) != probeReady {
		return 0, fmt.Errorf("set-up probe said %q (%v)", line, readErr)
	}
	return took, nil
}

// run executes one workload once.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{Valid: true, Metrics: map[string]metric{}, Info: map[string]float64{}}
	res.Stamp = stamp{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.trace,
		Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0), Clients: clientCount(),
		GoVersion: runtime.Version(), WarmupS: cfg.warm.Seconds(), WindowS: cfg.window.Seconds(),
		Commit: commit(), Samples: map[string]int{},
	}

	// Set-up: fresh processes first, then this one's own.
	var setups []float64
	for i := 0; i < cfg.probes; i++ {
		s, err := probeSetup(w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	start := time.Now()
	st, err := newStack(w, cfg.facts, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setups = append(setups, time.Since(start).Seconds())
	res.Stamp.Facts = factLen(st.wh) + len(st.tail)
	res.Info["setup_samples"] = float64(len(setups))
	res.Info["setup_spread"] = spread(setups)
	setupS := median(setups)

	// The oracle, and the paper's own results, before any timing.
	oc := newConn(st.base)
	orc, err := oraclePass(ctx, oc, paperQueries())
	oc.close()
	if err != nil {
		return nil, err
	}
	res.Info["oracle_s"] = orc.seconds
	res.Info["precision_at_1"] = float64(orc.relevantAt1)
	res.Info["expected_errors"] = float64(len(orc.expectedErrors()))
	if err := orc.assertPaper(w.facts == 0); err != nil {
		return nil, err
	}
	ck := &checker{w: w, orc: orc, book: newDrillBook()}

	var ops []op
	verified := true
	if cfg.trace {
		rep, err := runTraced(ctx, cfg, st, ck)
		if err != nil {
			return nil, err
		}
		ops = rep.ops
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: rep.metrics[d.name], Unit: d.unit}
		}
		for k, v := range rep.info {
			res.Info[k] = v
		}
		res.SpanFile = rep.spanFile
	} else {
		readers := clientCount()
		var batches []ingestBatch
		if w.ingest {
			if readers > 1 {
				readers--
			}
			n := int(cfg.window.Seconds()*ingestRate+1) * ingestBatchRows
			if n > len(st.tail) {
				n = len(st.tail)
			}
			batches = encodeBatches(st.tail[:n], factLen(st.wh), ingestBatchRows)
		}
		load := runLoad(ctx, st, ck, cfg.seed, readers, cfg.warm, cfg.window, batches)
		ops = load.ops
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = metric{Value: setupS, Unit: "s", N: len(setups)}
		res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
		summarize(res, load)

		vstart := time.Now()
		wrong, note, err := verify(ctx, cfg, st, ck, load)
		if err != nil {
			return nil, err
		}
		res.Info["verify_s"] = time.Since(vstart).Seconds()
		if note != "" {
			res.Notes = append(res.Notes, note)
		}
		for _, w := range wrong {
			res.Notes = append(res.Notes, "WRONG: "+w)
		}
		verified = len(wrong) == 0
	}

	for _, o := range ops {
		res.Attempted++
		if !o.ok {
			res.Failed++
			if res.Failed <= 10 {
				res.Notes = append(res.Notes, "failed: "+o.why)
			}
		}
	}
	res.Correct = res.Failed == 0 && verified
	return res, nil
}

// summarize folds the window's operations into the end-to-end metrics.
func summarize(res *runResult, load *loadResult) {
	window := load.windowEnd.Sub(load.windowStart).Seconds()
	lat := make([][]float64, numOps)
	done := 0
	for _, o := range load.ops {
		// A writer batch is timed from its due time, which the window
		// bounds; a read counts when it started and ended inside.
		if !o.ok || o.start.Before(load.windowStart) || o.end.After(load.windowEnd) {
			continue
		}
		done++
		lat[o.kind] = append(lat[o.kind], float64(o.end.Sub(o.start).Nanoseconds())/1e6)
	}
	for k := range lat {
		sort.Float64s(lat[k])
		res.Stamp.Samples[opNames[k]] = len(lat[k])
	}
	res.Metrics["throughput_ops_s"] = metric{Value: float64(done) / window, Unit: "1/s", N: done}
	put := func(name string, kind opKind, p float64) {
		v, err := percentile(lat[kind], p)
		if err != nil {
			res.Valid = false
			res.Notes = append(res.Notes, fmt.Sprintf("%s: %v", name, err))
		}
		res.Metrics[name] = metric{Value: v, Unit: "ms", N: len(lat[kind])}
	}
	put("query_p50_ms", opQuery, 0.50)
	put("query_p90_ms", opQuery, tailP)
	put("explore_p50_ms", opExplore, 0.50)
	put("explore_p90_ms", opExplore, tailP)
	if len(load.late) > 0 {
		put("ingest_ack_p50_ms", opIngest, 0.50)
		put("ingest_ack_p90_ms", opIngest, tailP)
		var late []float64
		for _, d := range load.late {
			late = append(late, float64(d.Nanoseconds())/1e6)
		}
		res.Info["ingest_late_p50_ms"] = median(late) // sorts late
		res.Info["ingest_late_max_ms"] = late[len(late)-1]
		res.Info["ingest_batches"] = float64(len(late))
	}
	// The higher percentiles, where the window was long enough for them.
	for _, k := range []opKind{opQuery, opExplore, opIngest} {
		for _, p := range []float64{0.95, 0.99} {
			if v, err := percentile(lat[k], p); err == nil {
				res.Info[fmt.Sprintf("%s_p%g_ms", opNames[k], p*100)] = v
			}
		}
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// commit names the source the binary was built from: the VCS revision
// the Go tool stamped, else the KDAP_COMMIT environment variable (a
// checkout that is not a repository has neither: "unknown").
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if len(rev) >= 12 {
			return rev[:12] + dirty
		}
	}
	if c := os.Getenv("KDAP_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
