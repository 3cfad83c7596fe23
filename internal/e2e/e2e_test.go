// Package e2e builds the real command binaries and drives them as a user
// would: scripted REPL sessions, warehouse directories written,
// inspected and served across a restart, and experiment regeneration.
package e2e

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kdap-e2e")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, cmd := range []string{"kdap", "kdapbench", "kdapd", "kdapgen"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "kdap/cmd/"+cmd).CombinedOutput()
		if err != nil {
			panic(cmd + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, stdin string, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestREPLSession(t *testing.T) {
	script := strings.Join([]string{
		"help",
		"Columbus LCD",
		"pick 3",
		"sql",
		"explain 3",
		"drill 1 1",
		"back",
		"mode bellwether",
		"csv",
		"quit",
	}, "\n") + "\n"
	out := run(t, script, "kdap", "-db", "ebiz")
	for _, want := range []string{
		"KDAP session on EBiz",
		"interpretations:",
		"Sub-dataspace:",
		"SELECT SUM(",
		"score ",
		"dimension,attribute,role", // CSV header
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q\n---\n%s", want, out)
		}
	}
}

func TestREPLSuggestions(t *testing.T) {
	out := run(t, "Colombus\nquit\n", "kdap", "-db", "ebiz")
	if !strings.Contains(out, "did you mean Columbus") {
		t.Errorf("no suggestion:\n%s", out)
	}
}

func TestREPLNumericPredicate(t *testing.T) {
	out := run(t, "Projectors UnitPrice>1000\npick 1\nquit\n", "kdap", "-db", "ebiz")
	if !strings.Contains(out, "Sub-dataspace:") {
		t.Errorf("predicate session failed:\n%s", out)
	}
}

func TestWarehouseDirRoundTripViaBinaries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ebiz")
	out := run(t, "", "kdapgen", "-out", dir, "-db", "ebiz")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("kdapgen: %s", out)
	}
	info := run(t, "", "kdapgen", "-info", dir)
	if !strings.Contains(info, "fact=TRANSITEM") || !strings.Contains(info, "12 tables") {
		t.Errorf("info: %s", info)
	}
	dot := run(t, "", "kdapgen", "-dot", dir)
	if !strings.Contains(dot, "digraph schema") {
		t.Errorf("dot: %s", dot)
	}
	repl := run(t, "Columbus\nquit\n", "kdap", "-db", dir)
	if !strings.Contains(repl, "interpretations:") {
		t.Errorf("warehouse directory REPL: %s", repl)
	}
}

// factRows opens the warehouse directory dir in the REPL and returns
// the fact row count its banner reports.
func factRows(t *testing.T, dir string) int {
	t.Helper()
	out := run(t, "quit\n", "kdap", "-db", dir)
	var name string
	var n int
	if _, err := fmt.Sscanf(out, "KDAP session on %s (%d fact rows)", &name, &n); err != nil {
		t.Fatalf("banner %q: %v", out, err)
	}
	return n
}

// TestIngestSurvivesRestart: a row ingested into kdapd serving a
// warehouse directory is in the directory once kdapd has shut down on
// SIGTERM, so the next process to open it sees one more fact row.
func TestIngestSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ebiz")
	run(t, "", "kdapgen", "-out", dir, "-db", "ebiz")
	before := factRows(t, dir)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var logs bytes.Buffer
	kdapd := exec.Command(filepath.Join(binDir, "kdapd"), "-addr", addr, "-db", dir)
	kdapd.Stdout, kdapd.Stderr = &logs, &logs
	if err := kdapd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- kdapd.Wait() }()
	defer kdapd.Process.Kill()
	base := "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("kdapd never became healthy:\n%s", logs.String())
		}
	}
	// A TRANSITEM row in fact-schema order, served under the directory's
	// base name.
	resp, err := http.Post(base+"/api/ingest", "application/json",
		strings.NewReader(`{"db":"ebiz","rows":[[4001, 1, 1, 1, 9.99]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if err := kdapd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("kdapd exited with %v:\n%s", err, logs.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("kdapd did not stop on SIGTERM:\n%s", logs.String())
	}

	if after := factRows(t, dir); after != before+1 {
		t.Errorf("after one ingested row and a restart the warehouse holds %d fact rows, want %d", after, before+1)
	}
}

func TestBenchTable1(t *testing.T) {
	out := run(t, "", "kdapbench", "-exp", "table1")
	if !strings.Contains(out, "Mountain Bikes") || !strings.Contains(out, "California") {
		t.Errorf("table1: %s", out)
	}
}

func TestCSVWarehouseViaBinaries(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("p.csv", "K,Name\n1,Widget\n2,Gadget\n")
	write("f.csv", "S,K,Amount\n1,1,10\n2,2,20\n3,1,5\n")
	write("manifest.json", `{
  "name": "Mini", "fact": "F", "strict": true,
  "tables": [
    {"name": "P", "file": "p.csv", "key": "K", "columns": [
      {"name": "K", "kind": "int"}, {"name": "Name", "kind": "string", "fullText": true}]},
    {"name": "F", "file": "f.csv", "key": "S", "columns": [
      {"name": "S", "kind": "int"}, {"name": "K", "kind": "int"}, {"name": "Amount", "kind": "float"}],
     "foreignKeys": [{"column": "K", "refTable": "P", "refColumn": "K"}]}
  ],
  "dimensions": [
    {"name": "Product", "tables": ["P"], "groupBy": [{"table": "P", "attr": "Name"}]}
  ]
}`)
	whDir := filepath.Join(t.TempDir(), "mini")
	run(t, "", "kdapgen", "-out", whDir, "-csv", dir)
	out := run(t, "Widget\nquit\n", "kdap", "-db", whDir)
	if !strings.Contains(out, "interpretations:") {
		t.Errorf("csv warehouse session: %s", out)
	}
}
