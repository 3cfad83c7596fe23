package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"

	"kdap/internal/cluster"
	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/kdapcore"
	"kdap/internal/workload"
)

// The cluster experiment is the distributed rung of the bench ladder:
// in-process worker nodes on loopback (real sockets, real wire
// protocol — only the network distance is fake), a coordinator engine
// scattering to them, fingerprint parity against a monolithic engine
// over the full 50-query workload, and a cold-explore latency ladder at
// 1/2/4 workers. Written to BENCH.json's "cluster" section by
// `-exp cluster`; the nightly gate re-runs parity (hard fail on any
// divergence) and holds the 2-worker-vs-monolithic latency ratio to the
// usual slack budget.

// clusterBench is BENCH.json's "cluster" section.
type clusterBench struct {
	Workload string `json:"workload"`
	// ParityQueries/ParityMatched: workload queries whose 2-worker
	// facets fingerprint byte-identical to the monolithic engine's.
	ParityQueries int `json:"parity_queries"`
	ParityMatched int `json:"parity_matched"`
	// MonolithicNsPerOp is the cold explore (rows cache purged every
	// iteration) on a single local engine.
	MonolithicNsPerOp int64 `json:"monolithic_ns_per_op"`
	// Rungs is the same cold explore through a coordinator at each
	// worker count.
	Rungs []clusterRung `json:"rungs"`
	// RatioTwoWorkers = 2-worker ns/op ÷ monolithic ns/op — the number
	// the nightly gate pins. Loopback workers can't beat a local scan
	// (the rows still cross a socket), so this measures scatter overhead
	// and catches protocol or dispatch regressions.
	RatioTwoWorkers float64 `json:"ratio_two_workers"`
}

// clusterRung is one worker-count point of the ladder.
type clusterRung struct {
	Workers int   `json:"workers"`
	NsPerOp int64 `json:"ns_per_op"`
}

// clusterQuery is the ladder's drill: selective enough that row-set
// transfer doesn't dwarf the semijoin.
const clusterQuery = "Road Bikes UnitPrice>1000"

// startBenchWorkers launches n in-process workers on loopback and
// returns their addresses plus a shutdown func.
func startBenchWorkers(n int) ([]string, func(), error) {
	var addrs []string
	var ws []*cluster.Worker
	shutdown := func() {
		for _, w := range ws {
			w.Close()
		}
	}
	for i := 0; i < n; i++ {
		w := cluster.NewWorker(map[string]*kdapcore.Engine{
			"online": experiments.Engine(dataset.AWOnline()),
		}, i, n, 0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		go w.Serve(ln)
		ws = append(ws, w)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, shutdown, nil
}

// clusterEngine builds a coordinator engine scattering to addrs, with
// hedging off and fallback on — the configuration where every answer
// must come off the wire unless a node actually dies.
func clusterEngine(addrs []string) (*kdapcore.Engine, *cluster.Cluster, error) {
	e := experiments.Engine(dataset.AWOnline())
	opts := cluster.DefaultOptions()
	opts.HedgeAfter = 0
	cl := cluster.New(addrs, map[string]*kdapcore.Engine{"online": e}, opts)
	if err := cl.Verify(context.Background()); err != nil {
		cl.Close()
		return nil, nil, err
	}
	e.SetScatter(cl.Scatterer("online"))
	return e, cl, nil
}

// coldExplore differentiates once, then returns a timed body that
// explores the top net with the rows cache purged every iteration, so
// every run re-materializes the subspace (through the scatter path on a
// coordinator engine).
func coldExplore(e *kdapcore.Engine, query string) (func(), error) {
	nets, err := e.Differentiate(query)
	if err != nil || len(nets) == 0 {
		return nil, fmt.Errorf("cluster bench: differentiate %q: %v (%d nets)", query, err, len(nets))
	}
	opts := kdapcore.DefaultExploreOptions()
	return func() {
		e.InvalidateSubspaceRows()
		if _, err := e.Explore(nets[0], opts); err != nil {
			panic(err)
		}
	}, nil
}

func computeCluster() (*clusterBench, error) {
	out := &clusterBench{Workload: "AW_ONLINE"}

	// Parity first: all 50 workload queries, 2 workers vs monolithic.
	mono := experiments.Engine(dataset.AWOnline())
	addrs, shutdown, err := startBenchWorkers(2)
	if err != nil {
		return nil, err
	}
	coord, cl, err := clusterEngine(addrs)
	if err != nil {
		shutdown()
		return nil, err
	}
	exploreFP := func(e *kdapcore.Engine, q string) ([]byte, error) {
		nets, err := e.Differentiate(q)
		if err != nil || len(nets) == 0 {
			return nil, fmt.Errorf("differentiate %q: %v (%d nets)", q, err, len(nets))
		}
		f, err := e.Explore(nets[0], kdapcore.DefaultExploreOptions())
		// Same convention as the ingest parity sweep: empty on both
		// sides is parity, empty on one side is a mismatch.
		if emptySubspace(err) {
			return []byte("empty sub-dataspace"), nil
		}
		if err != nil {
			return nil, fmt.Errorf("explore %q: %w", q, err)
		}
		return f.Fingerprint(), nil
	}
	for _, q := range workload.AWOnlineQueries() {
		out.ParityQueries++
		want, err := exploreFP(mono, q.Text)
		if err != nil {
			cl.Close()
			shutdown()
			return nil, err
		}
		got, err := exploreFP(coord, q.Text)
		if err != nil {
			cl.Close()
			shutdown()
			return nil, err
		}
		if bytes.Equal(want, got) {
			out.ParityMatched++
		} else {
			fmt.Printf("cluster: PARITY MISMATCH query %d %q\n", q.ID, q.Text)
		}
	}
	cl.Close()
	shutdown()

	// Latency ladder: monolithic, then 1/2/4 workers.
	body, err := coldExplore(mono, clusterQuery)
	if err != nil {
		return nil, err
	}
	out.MonolithicNsPerOp = measure("ClusterMonolithic", body).NsPerOp
	for _, n := range []int{1, 2, 4} {
		addrs, shutdown, err := startBenchWorkers(n)
		if err != nil {
			return nil, err
		}
		coord, cl, err := clusterEngine(addrs)
		if err != nil {
			shutdown()
			return nil, err
		}
		body, err := coldExplore(coord, clusterQuery)
		if err != nil {
			cl.Close()
			shutdown()
			return nil, err
		}
		ns := measure(fmt.Sprintf("Cluster%dWorkers", n), body).NsPerOp
		out.Rungs = append(out.Rungs, clusterRung{Workers: n, NsPerOp: ns})
		if n == 2 {
			out.RatioTwoWorkers = float64(ns) / float64(out.MonolithicNsPerOp)
		}
		cl.Close()
		shutdown()
	}
	return out, nil
}

func printCluster(c *clusterBench) {
	fmt.Printf("cluster parity   %d/%d workload fingerprints byte-identical (2 workers)\n",
		c.ParityMatched, c.ParityQueries)
	fmt.Printf("cluster mono     %12d ns/op cold explore\n", c.MonolithicNsPerOp)
	for _, r := range c.Rungs {
		fmt.Printf("cluster %dw       %12d ns/op (%.2fx mono)\n",
			r.Workers, r.NsPerOp, float64(r.NsPerOp)/float64(c.MonolithicNsPerOp))
	}
}

func clusterJSON() error {
	fresh, err := computeCluster()
	if err != nil {
		return err
	}
	if fresh.ParityMatched != fresh.ParityQueries {
		return fmt.Errorf("cluster: %d of %d workload queries diverged from monolithic",
			fresh.ParityQueries-fresh.ParityMatched, fresh.ParityQueries)
	}
	buf, err := os.ReadFile("BENCH.json")
	if err != nil {
		return fmt.Errorf("cluster: read BENCH.json (run -exp bench first): %w", err)
	}
	var out benchFile
	if err := json.Unmarshal(buf, &out); err != nil {
		return fmt.Errorf("cluster: parse BENCH.json: %w", err)
	}
	out.Cluster = fresh
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH.json", append(enc, '\n'), 0o644); err != nil {
		return err
	}
	printCluster(fresh)
	fmt.Println("wrote BENCH.json (cluster section)")
	return nil
}

// clusterRatioSlack is the nightly budget for the 2-worker-vs-mono
// ratio: loopback scatter adds protocol and socket cost on top of the
// scan, and the ratio flaps more than a pure-CPU kernel, so it gets a
// wider budget than nightlySlack.
const clusterRatioSlack = 1.50

func nightlyCluster(base *clusterBench) ([]string, error) {
	if base == nil {
		fmt.Println("cluster: no baseline in BENCH.json, skipped")
		return nil, nil
	}
	fresh, err := computeCluster()
	if err != nil {
		return nil, err
	}
	var failures []string
	status := "ok"
	if fresh.ParityMatched != fresh.ParityQueries {
		status = "FAIL"
		failures = append(failures, fmt.Sprintf("cluster: %d of %d workload queries diverged from monolithic",
			fresh.ParityQueries-fresh.ParityMatched, fresh.ParityQueries))
	}
	fmt.Printf("cluster parity %6d/%d fingerprints byte-identical  %s\n",
		fresh.ParityMatched, fresh.ParityQueries, status)
	status = "ok"
	if base.RatioTwoWorkers > 0 && fresh.RatioTwoWorkers > base.RatioTwoWorkers*clusterRatioSlack {
		status = "FAIL"
		failures = append(failures, fmt.Sprintf("cluster: 2-worker ratio %.2fx vs baseline %.2fx (>%.0f%% regression)",
			fresh.RatioTwoWorkers, base.RatioTwoWorkers, (clusterRatioSlack-1)*100))
	}
	fmt.Printf("cluster 2w ratio %9.2fx mono      baseline %9.2fx (budget %.2fx)  %s\n",
		fresh.RatioTwoWorkers, base.RatioTwoWorkers, clusterRatioSlack, status)
	return failures, nil
}
