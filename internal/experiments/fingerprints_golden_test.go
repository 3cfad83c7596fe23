package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/kdapcore"
	"kdap/internal/persist"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/workload"
)

// The golden reference. Every other byte-identity oracle in the repo is
// pairwise — two execution strategies run side by side — so it cannot
// outlive the deletion of one side. testdata/fingerprints.golden holds
// SHA-256 digests of Facets.Fingerprint() and of the sub-dataspace row
// list, generated at the commit *before* the row-space refactor (PR 14's
// parent) by this very test with -update-golden. Whatever produces row
// sets now must reproduce it unedited. Regenerate only on a deliberate,
// documented re-pin of the float summation order.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprints.golden from the current implementation")

const goldenPath = "testdata/fingerprints.golden"

// goldenEntry digests one star net: its facets and its fact rows.
func goldenEntry(e *kdapcore.Engine, sn *kdapcore.StarNet) string {
	rows, err := e.SubspaceRowsCtx(context.Background(), sn)
	if err != nil {
		return "rows error: " + err.Error()
	}
	var rb strings.Builder
	for _, r := range rows {
		rb.WriteString(strconv.Itoa(r))
		rb.WriteByte(',')
	}
	rsum := sha256.Sum256([]byte(rb.String()))
	fp := ""
	f, err := e.ExploreCtx(context.Background(), sn, kdapcore.DefaultExploreOptions())
	if err != nil {
		fp = "error: " + err.Error()
	} else {
		sum := sha256.Sum256(f.Fingerprint())
		fp = hex.EncodeToString(sum[:])
	}
	return fmt.Sprintf("rows=%d:%s\tfacets=%s", len(rows), hex.EncodeToString(rsum[:]), fp)
}

// namedNet is one entry of the golden set; sn is nil when the query has
// no interpretation.
type namedNet struct {
	name string
	sn   *kdapcore.StarNet
}

// goldenNets resolves the golden set over one engine: the 50 Table-3
// queries' top-1 nets plus the fixed drilled set. n is the warehouse's
// build-time fact count, which scales the SalesKey bounds (SalesKey is
// ingest-clustered: row i carries key i+1).
func goldenNets(t *testing.T, label string, e *kdapcore.Engine, n int) []namedNet {
	t.Helper()
	var out []namedNet
	top := func(q string) *kdapcore.StarNet {
		nets, err := e.DifferentiateCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: differentiate %q: %v", label, q, err)
		}
		if len(nets) == 0 {
			return nil
		}
		return nets[0]
	}
	for _, q := range workload.AWOnlineQueries() {
		out = append(out, namedNet{fmt.Sprintf("q%02d", q.ID), top(q.Text)})
	}

	base := top("Road Bikes")
	if base == nil {
		t.Fatalf("%s: Road Bikes has no interpretation", label)
	}
	must := func(sn *kdapcore.StarNet, err error) *kdapcore.StarNet {
		if err != nil {
			t.Fatalf("%s: drill: %v", label, err)
		}
		return sn
	}
	fact := e.Graph().FactTable()
	out = append(out, namedNet{"drill-categorical", must(e.Drill(base,
		schemagraph.AttrRef{Table: "DimCustomer", Attr: "Occupation"}, "Customer", relation.String("Professional")))})
	filterQ := fmt.Sprintf("Road Bikes SalesKey>%d", n/10*9)
	if sn := top(filterQ); sn != nil {
		out = append(out, namedNet{"filter-saleskey-gt", sn})
	} else {
		t.Fatalf("%s: %q has no interpretation", label, filterQ)
	}
	out = append(out, namedNet{"drillrange-fact-saleskey", must(e.DrillRange(base,
		schemagraph.AttrRef{Table: fact, Attr: "SalesKey"}, "", float64(n/3), float64(n/12*11)))})
	out = append(out, namedNet{"drillrange-fact-unitprice", must(e.DrillRange(base,
		schemagraph.AttrRef{Table: fact, Attr: "UnitPrice"}, "", 500, 1500))})
	out = append(out, namedNet{"drillrange-dim-dealerprice", must(e.DrillRange(base,
		schemagraph.AttrRef{Table: "DimProduct", Attr: "DealerPrice"}, "Product", 457, 1500))})
	return out
}

// goldenLine digests one net of the golden set over e.
func goldenLine(label string, e *kdapcore.Engine, nn namedNet) string {
	if nn.sn == nil {
		return label + "/" + nn.name + "\tno interpretation"
	}
	return label + "/" + nn.name + "\t" + goldenEntry(e, nn.sn)
}

// goldenPass digests the golden set over one engine, each line prefixed
// by label.
func goldenPass(t *testing.T, label string, e *kdapcore.Engine, n int) []string {
	t.Helper()
	var out []string
	for _, nn := range goldenNets(t, label, e, n) {
		out = append(out, goldenLine(label, e, nn))
	}
	return out
}

// appendBatches streams the schedule into the engine.
func appendBatches(t *testing.T, e *kdapcore.Engine, batches [][][]relation.Value) {
	t.Helper()
	for i, b := range batches {
		if _, err := e.AppendFacts(context.Background(), b); err != nil {
			t.Fatalf("append batch %d: %v", i, err)
		}
	}
}

// relabel rewrites each line's label prefix, so a from-scratch engine's
// pass can be compared with the incrementally maintained one's.
func relabel(lines []string, from, to string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = to + strings.TrimPrefix(l, from)
	}
	return out
}

func TestFingerprintsGolden(t *testing.T) {
	var lines []string

	// 1. The paper-scale warehouse, read-only (it is shared process-wide).
	lines = append(lines, goldenPass(t, "aw_online", Engine(dataset.AWOnline()), dataset.AWOnlineFactCount)...)

	// 2. A private resident warehouse, before and after a fixed 3-batch
	// append of its generator's next rows; the batches straddle a segment
	// boundary (57344) and end mid-segment.
	const scaled, resident = 60_000, 50_000
	wh, tail := dataset.AWOnlineScaledPartial(scaled, resident)
	e := Engine(wh)
	lines = append(lines, goldenPass(t, "resident/pre", e, scaled)...)
	appendBatches(t, e, [][][]relation.Value{tail[:3000], tail[3000:9000], tail[9000:]})
	post := goldenPass(t, "resident/post", e, scaled)
	lines = append(lines, post...)
	// Incremental maintenance (extended row sets, bitsets, zones) must
	// agree with an engine that first sees the table at its final length.
	if fresh := relabel(goldenPass(t, "resident/fresh", Engine(wh), scaled), "resident/fresh", "resident/post"); !equalLines(fresh, post) {
		t.Errorf("resident: appended engine diverges from a fresh engine over the same rows:\n%s", diffLines(fresh, post))
	}

	// 3. A small disk-backed warehouse (1024-row segments, short tail
	// segment), before and after appending copies of three of its own row
	// ranges — out-of-cluster SalesKey values landing in the tail.
	const backedN = 24_000
	bwh, store, err := persist.AWOnlineScaledBacked(t.TempDir(), backedN, 1024)
	if err != nil {
		t.Fatalf("backed warehouse: %v", err)
	}
	defer store.Close()
	be := Engine(bwh)
	lines = append(lines, goldenPass(t, "backed/pre", be, backedN)...)
	bfact := bwh.DB.Table(bwh.Graph.FactTable())
	copyRows := func(lo, hi int) [][]relation.Value {
		out := make([][]relation.Value, 0, hi-lo)
		for r := lo; r < hi; r++ {
			out = append(out, bfact.Row(r))
		}
		return out
	}
	appendBatches(t, be, [][][]relation.Value{copyRows(100, 800), copyRows(9000, 10500), copyRows(20000, 20300)})
	bpost := goldenPass(t, "backed/post", be, backedN)
	lines = append(lines, bpost...)
	if fresh := relabel(goldenPass(t, "backed/fresh", Engine(bwh), backedN), "backed/fresh", "backed/post"); !equalLines(fresh, bpost) {
		t.Errorf("backed: appended engine diverges from a fresh engine over the same rows:\n%s", diffLines(fresh, bpost))
	}

	got := []byte(strings.Join(lines, "\n") + "\n")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", goldenPath, len(lines))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (generate with -update-golden at a trusted commit): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fingerprints diverge from %s:\n%s", goldenPath,
			diffLines(strings.Split(strings.TrimSpace(string(want)), "\n"), lines))
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffLines renders the first few differing lines of two listings.
func diffLines(want, got []string) string {
	var b strings.Builder
	shown := 0
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "  want %s\n  got  %s\n", w, g)
		if shown++; shown == 5 {
			b.WriteString("  ...\n")
			break
		}
	}
	return b.String()
}
