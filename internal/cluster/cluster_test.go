package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/experiments"
	"kdap/internal/kdapcore"
	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
	"kdap/internal/workload"
)

const testDB = "online"

// newEngine builds a fresh AWOnline engine (the paper's warehouse and
// measure), so every node in a test cluster replicates the same data.
func newEngine() *kdapcore.Engine {
	return experiments.Engine(dataset.AWOnline())
}

// testCluster is one in-process topology: n workers on loopback plus a
// coordinator wired into its own engine.
type testCluster struct {
	cl      *Cluster
	engine  *kdapcore.Engine // coordinator engine, scatter-enabled
	workers []*Worker
	addrs   []string
}

func startCluster(t *testing.T, n int, opts Options) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		w := NewWorker(map[string]*kdapcore.Engine{testDB: newEngine()}, i, n, 0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve(ln)
		t.Cleanup(func() { w.Close() })
		tc.workers = append(tc.workers, w)
		tc.addrs = append(tc.addrs, ln.Addr().String())
	}
	tc.engine = newEngine()
	tc.cl = New(tc.addrs, map[string]*kdapcore.Engine{testDB: tc.engine}, opts)
	t.Cleanup(tc.cl.Close)
	tc.engine.SetScatter(tc.cl.Scatterer(testDB))
	return tc
}

// explore differentiates and explores query's top net, returning the
// facets fingerprint.
func explore(t *testing.T, e *kdapcore.Engine, query string, opts kdapcore.ExploreOptions) (*kdapcore.Facets, []byte) {
	t.Helper()
	nets, err := e.Differentiate(query)
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate %q: nets=%d err=%v", query, len(nets), err)
	}
	f, err := e.ExploreCtx(context.Background(), nets[0], opts)
	if err != nil {
		t.Fatalf("explore %q: %v", query, err)
	}
	return f, f.Fingerprint()
}

func TestShardRangePartition(t *testing.T) {
	for _, rows := range []int{0, 1, 7, 100, 60398} {
		for _, total := range []int{1, 2, 3, 4, 7} {
			prev := 0
			for i := 0; i < total; i++ {
				lo, hi := shardRange(rows, i, total)
				if lo != prev {
					t.Fatalf("rows=%d total=%d node=%d: range [%d,%d) not contiguous after %d",
						rows, total, i, lo, hi, prev)
				}
				if hi < lo {
					t.Fatalf("rows=%d total=%d node=%d: inverted range [%d,%d)", rows, total, i, lo, hi)
				}
				prev = hi
			}
			if prev != rows {
				t.Fatalf("rows=%d total=%d: partition covers [0,%d), want [0,%d)", rows, total, prev, rows)
			}
		}
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	req := &rowsRequest{
		DB: "online",
		Lo: 17,
		Hi: 9999,
		Cs: []olap.Constraint{{
			Table:  "DimProduct",
			Attr:   "EnglishProductName",
			Values: []relation.Value{relation.String("Road-150"), relation.Int(3), relation.Float(2.5), relation.Bool(true), relation.Null()},
			Path: schemagraph.JoinPath{
				Source: "FactInternetSales", Dim: "DimProduct", Role: "product",
				Hops: []schemagraph.Hop{{FromTable: "FactInternetSales", FromCol: "ProductKey", ToTable: "DimProduct", ToCol: "ProductKey"}},
			},
		}},
		Filters: []kdapcore.NumericFilter{{
			Raw:    "UnitPrice>1000",
			Attr:   schemagraph.AttrRef{Table: "FactInternetSales", Attr: "UnitPrice"},
			Role:   "measure",
			OnFact: true,
			Op:     kdapcore.OpGT,
			Value:  1000,
		}},
	}
	op, d, err := decodeRequest(encodeRowsRequest(req))
	if err != nil || op != opRows {
		t.Fatalf("decodeRequest: op=%d err=%v", op, err)
	}
	got, err := decodeRowsRequest(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("request round trip mismatch:\n%#v\n%#v", req, got)
	}

	resp := &rowsResponse{Lo: 17, Hi: 9999, Rows: []int{17, 18, 400, 9998}, Count: 4, Sum: 1234.5}
	rd, err := decodeResponse(encodeRowsResponse(resp), opRows)
	if err != nil {
		t.Fatal(err)
	}
	gotResp, err := decodeRowsResponse(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("response round trip mismatch:\n%#v\n%#v", resp, gotResp)
	}

	h := &healthResponse{Index: 1, Total: 4, Inflight: 2, DBs: []healthDB{{Name: "online", FactRows: 60398, Lo: 15099, Hi: 30199}}}
	hd, err := decodeResponse(encodeHealthResponse(h), opHealth)
	if err != nil {
		t.Fatal(err)
	}
	gotH, err := decodeHealthResponse(hd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, gotH) {
		t.Fatalf("health round trip mismatch:\n%#v\n%#v", h, gotH)
	}
}

func TestProtocolRejectsCorruption(t *testing.T) {
	if _, _, err := decodeRequest([]byte("BADMAGIC\x02")); err == nil {
		t.Fatal("bad magic accepted")
	}
	payload := encodeRowsRequest(&rowsRequest{DB: "online", Lo: 0, Hi: 10})
	for cut := len(netMagic) + 1; cut < len(payload); cut++ {
		_, d, err := decodeRequest(payload[:cut])
		if err != nil {
			continue
		}
		if _, err := decodeRowsRequest(d); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Error responses decode into the worker's message.
	if _, err := decodeResponse(encodeError(opRows, "worker busy"), opRows); err == nil || !bytes.Contains([]byte(err.Error()), []byte("worker busy")) {
		t.Fatalf("error response: %v", err)
	}
	// An oversized frame length must be refused before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// Distributed explores must be byte-identical to a monolithic engine
// across worker counts — the Fingerprint oracle is the contract.
func TestClusterByteIdentity(t *testing.T) {
	mono := newEngine()
	opts := kdapcore.DefaultExploreOptions()
	queries := []string{
		"Road Bikes UnitPrice>1000",
		"California Mountain Bikes",
		"Road Bikes SalesKey>54000",
		"Accessories",
	}
	for _, n := range []int{1, 2, 3} {
		copts := DefaultOptions()
		copts.HedgeAfter = 0 // force the remote path to answer
		tc := startCluster(t, n, copts)
		if err := tc.cl.Verify(context.Background()); err != nil {
			t.Fatalf("verify %d workers: %v", n, err)
		}
		for _, q := range queries {
			wantF, want := explore(t, mono, q, opts)
			gotF, got := explore(t, tc.engine, q, opts)
			if !bytes.Equal(want, got) {
				t.Fatalf("%d workers, %q: distributed facets differ from monolithic", n, q)
			}
			if gotF.Partial || wantF.Partial {
				t.Fatalf("%d workers, %q: unexpected partial", n, q)
			}
		}
	}
}

// The full 50-query workload at 2 workers — the same parity rung the
// nightly bench gate pins — kept in-tree so -race covers it.
func TestClusterWorkloadParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload parity is a long test")
	}
	mono := newEngine()
	copts := DefaultOptions()
	copts.HedgeAfter = 0
	tc := startCluster(t, 2, copts)
	opts := kdapcore.DefaultExploreOptions()
	// A few workload queries select no facts under their top
	// interpretation; empty on both sides is parity, empty on one side
	// is a divergence.
	fingerprint := func(e *kdapcore.Engine, query string) []byte {
		nets, err := e.Differentiate(query)
		if err != nil || len(nets) == 0 {
			t.Fatalf("differentiate %q: nets=%d err=%v", query, len(nets), err)
		}
		f, err := e.ExploreCtx(context.Background(), nets[0], opts)
		if err != nil && strings.Contains(err.Error(), "empty sub-dataspace") {
			return []byte("empty sub-dataspace")
		}
		if err != nil {
			t.Fatalf("explore %q: %v", query, err)
		}
		return f.Fingerprint()
	}
	for _, q := range workload.AWOnlineQueries() {
		want := fingerprint(mono, q.Text)
		got := fingerprint(tc.engine, q.Text)
		if !bytes.Equal(want, got) {
			t.Fatalf("query %d %q: distributed facets differ from monolithic", q.ID, q.Text)
		}
	}
}

// A worker dying mid-explore with fallback off yields an attributed
// partial answer when the client opted in, a typed error when it did
// not, and a complete answer again once the node recovers — never a
// hang, never silently wrong rows.
func TestClusterNodeLossDegradation(t *testing.T) {
	copts := DefaultOptions()
	copts.Fallback = false
	copts.HedgeAfter = 0
	copts.NodeTimeout = 500 * time.Millisecond
	tc := startCluster(t, 2, copts)
	mono := newEngine()

	// Kill node 1 deterministically: every opRows drops the connection.
	tc.workers[1].SetFaultHook(func(op byte) error {
		if op == opRows {
			return errors.New("injected fault")
		}
		return nil
	})

	const query = "Road Bikes UnitPrice>1000"
	opts := kdapcore.DefaultExploreOptions()
	opts.PartialOnDeadline = true

	start := time.Now()
	f, _ := explore(t, tc.engine, query, opts)
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("degraded explore took %v — deadline not honored", el)
	}
	if !f.Partial {
		t.Fatal("explore over a dead node did not mark Partial")
	}
	if len(f.DegradedNodes) != 1 || f.DegradedNodes[0] != tc.addrs[1] {
		t.Fatalf("DegradedNodes = %v, want [%s]", f.DegradedNodes, tc.addrs[1])
	}
	if f.SubspaceSize == 0 {
		t.Fatal("degraded answer lost the surviving shard too")
	}

	// Without the partial opt-in the loss is an error, not a wrong answer.
	strict := kdapcore.DefaultExploreOptions()
	nets, err := tc.engine.Differentiate(query)
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: %v", err)
	}
	if _, err := tc.engine.ExploreCtx(context.Background(), nets[0], strict); err == nil {
		t.Fatal("explore without PartialOnDeadline succeeded over a dead node")
	} else {
		var de *kdapcore.DegradedError
		if !errors.As(err, &de) {
			t.Fatalf("expected DegradedError, got %v", err)
		}
	}

	// Recovery: the degraded row sets must not have been cached anywhere,
	// and nothing computed over them retained — every space of the
	// degraded explore was ephemeral, so the healthy explore of the same
	// net scans afresh rather than adopting a distribution.
	if n := tc.engine.RowsCacheStats().Len; n != 0 {
		t.Fatalf("%d spaces cached while every scatter was degraded", n)
	}
	tc.workers[1].SetFaultHook(nil)
	distBefore := tc.engine.DistributionStats()
	f2, got := explore(t, tc.engine, query, opts)
	if f2.Partial || len(f2.DegradedNodes) != 0 {
		t.Fatalf("post-recovery explore still partial: %v", f2.DegradedNodes)
	}
	if d := tc.engine.DistributionStats(); d.Hits != distBefore.Hits || d.Misses == distBefore.Misses {
		t.Fatalf("post-recovery explore adopted %d distributions and filled %d; want 0 adopted, all filled",
			d.Hits-distBefore.Hits, d.Misses-distBefore.Misses)
	}
	_, want := explore(t, mono, query, kdapcore.DefaultExploreOptions())
	if !bytes.Equal(want, got) {
		t.Fatal("post-recovery facets differ from monolithic — degraded rows were cached")
	}
}

// With fallback on, losing a node costs latency, not correctness: the
// coordinator re-scans the dead node's range locally and the answer
// stays byte-identical.
func TestClusterFallbackMasksNodeLoss(t *testing.T) {
	copts := DefaultOptions()
	copts.HedgeAfter = 0
	copts.NodeTimeout = 500 * time.Millisecond
	tc := startCluster(t, 2, copts)
	reg := telemetry.NewRegistry()
	tc.cl.WireMetrics(reg)
	tc.workers[0].SetFaultHook(func(op byte) error {
		if op == opRows {
			return errors.New("injected fault")
		}
		return nil
	})
	mono := newEngine()

	const query = "California Mountain Bikes"
	f, got := explore(t, tc.engine, query, kdapcore.DefaultExploreOptions())
	if f.Partial {
		t.Fatal("fallback path marked Partial")
	}
	_, want := explore(t, mono, query, kdapcore.DefaultExploreOptions())
	if !bytes.Equal(want, got) {
		t.Fatal("fallback facets differ from monolithic")
	}
	if tc.cl.mNodeErr[0].Value() == 0 {
		t.Fatal("node error not recorded for the faulted worker")
	}
}

// A stalled (not dead) worker is hedged: after HedgeAfter the
// coordinator races a local re-scan and the first success wins, with
// output parity preserved.
func TestClusterHedgedRetry(t *testing.T) {
	copts := DefaultOptions()
	copts.HedgeAfter = 20 * time.Millisecond
	copts.NodeTimeout = 10 * time.Second
	tc := startCluster(t, 2, copts)
	reg := telemetry.NewRegistry()
	tc.cl.WireMetrics(reg)
	tc.workers[1].SetFaultHook(func(op byte) error {
		if op == opRows {
			time.Sleep(300 * time.Millisecond) // stall, then serve normally
		}
		return nil
	})
	mono := newEngine()

	const query = "Road Bikes SalesKey>54000"
	start := time.Now()
	f, got := explore(t, tc.engine, query, kdapcore.DefaultExploreOptions())
	if f.Partial {
		t.Fatal("hedged explore marked Partial")
	}
	_, want := explore(t, mono, query, kdapcore.DefaultExploreOptions())
	if !bytes.Equal(want, got) {
		t.Fatal("hedged facets differ from monolithic")
	}
	if tc.cl.mHedged.Value() == 0 {
		t.Fatalf("stalled worker produced no hedged re-scans (took %v)", time.Since(start))
	}
}

// Workers refuse requests outside their owned range and coordinators
// refuse to form a cluster over a mismatched topology.
func TestClusterVerifyRejectsTopologySkew(t *testing.T) {
	// Worker believes it is shard 0 of 3; coordinator expects 0 of 2.
	w := NewWorker(map[string]*kdapcore.Engine{testDB: newEngine()}, 0, 3, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })

	w2 := NewWorker(map[string]*kdapcore.Engine{testDB: newEngine()}, 1, 2, 0)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w2.Serve(ln2)
	t.Cleanup(func() { w2.Close() })

	cl := New([]string{ln.Addr().String(), ln2.Addr().String()},
		map[string]*kdapcore.Engine{testDB: newEngine()}, DefaultOptions())
	t.Cleanup(cl.Close)
	err = cl.Verify(context.Background())
	if err == nil {
		t.Fatal("Verify accepted a worker with the wrong shard arithmetic")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("shard 0/3")) {
		t.Fatalf("Verify error does not name the skew: %v", err)
	}
}

// The worker's admission control sheds excess requests with a busy
// error instead of queueing blind; the coordinator treats the shed as a
// node error and falls back.
func TestWorkerAdmission(t *testing.T) {
	w := NewWorker(map[string]*kdapcore.Engine{testDB: newEngine()}, 0, 1, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(ln)
	t.Cleanup(func() { w.Close() })

	// Occupy the single admission slot directly, then drive a request:
	// it must be shed with the busy error, not served or queued.
	w.inflight.Add(1)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lo, hi := w.Range(testDB)
	if err := writeFrame(conn, encodeRowsRequest(&rowsRequest{DB: testDB, Lo: lo, Hi: hi})); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(payload, opRows); err == nil || !bytes.Contains([]byte(err.Error()), []byte("busy")) {
		t.Fatalf("over-admitted request not shed: %v", err)
	}

	// Release the slot: the same connection serves normally again.
	w.inflight.Add(-1)
	if err := writeFrame(conn, encodeRowsRequest(&rowsRequest{DB: testDB, Lo: lo, Hi: hi})); err != nil {
		t.Fatal(err)
	}
	payload, err = readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeResponse(payload, opRows)
	if err != nil {
		t.Fatalf("post-shed request failed: %v", err)
	}
	resp, err := decodeRowsResponse(d)
	if err != nil {
		t.Fatal(err)
	}
	if int(resp.Count) != len(resp.Rows) || resp.Lo != lo || resp.Hi != hi {
		t.Fatalf("bad response after shed: %+v", resp)
	}
}
