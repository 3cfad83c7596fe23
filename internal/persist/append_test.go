package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"kdap/internal/relation"
)

// segTestRows returns the rows segTestTable would hold, so tests can
// split them between a seed writer and a streamed append.
func segTestRows(rows int) [][]relation.Value {
	terms := []string{"alpha", "beta", "gamma", "delta"}
	out := make([][]relation.Value, rows)
	for i := 0; i < rows; i++ {
		v := relation.Float(float64(i%97) * 1.5)
		if i%13 == 0 {
			v = relation.Null()
		}
		term := terms[i*len(terms)/rows]
		out[i] = []relation.Value{
			relation.Int(int64(i + 1)), relation.String(term), v, relation.Int(int64(i / 64)),
		}
	}
	return out
}

// assertDirsIdentical requires every file of a to exist byte-identical
// in b and vice versa.
func assertDirsIdentical(t *testing.T, a, b string) {
	t.Helper()
	ents, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		wa, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		wb, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatalf("append dir missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(wa, wb) {
			t.Fatalf("%s differs between full write and append path (%d vs %d bytes)", e.Name(), len(wa), len(wb))
		}
	}
	back, err := os.ReadDir(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ents) {
		t.Fatalf("append dir has %d files, full write %d", len(back), len(ents))
	}
}

// TestAppendConvergesOnWriterBytes seeds a store with a prefix of the
// rows (ending mid-segment), streams the rest through AppendRows in
// uneven batches, flushes, and requires every artifact — column files,
// manifest with zone maps, Bloom filters, dictionaries, term segment
// lists — byte-identical to writing all rows through a SegmentWriter in
// one pass. This is the "no full rebuild anywhere" contract: the
// incremental maintenance must land on exactly the state a rebuild
// would.
func TestAppendConvergesOnWriterBytes(t *testing.T) {
	const total, segSize = 1000, 128
	rows := segTestRows(total)
	for _, seed := range []int{0, 300, 384, total - 1} { // empty, mid-segment, boundary, one short
		tab := segTestTable(t, total)
		fullDir := t.TempDir()
		if err := WriteTableSegments(fullDir, tab, SegmentWriterOptions{SegmentSize: segSize}); err != nil {
			t.Fatal(err)
		}

		appDir := t.TempDir()
		w, err := NewSegmentWriter(appDir, tab.Schema(), SegmentWriterOptions{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows[:seed] {
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		st, err := OpenStore(appDir, tab.Schema())
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		for i := seed; i < total; {
			n := min(1+i%171, total-i) // uneven batches, some crossing segment boundaries
			if err := st.AppendRows(rows[i : i+n]); err != nil {
				t.Fatalf("seed %d: append at %d: %v", seed, i, err)
			}
			i += n
		}
		if st.NumRows() != total {
			t.Fatalf("seed %d: %d rows after append", seed, st.NumRows())
		}
		if err := st.Close(); err != nil { // Close flushes the dirty tail
			t.Fatalf("seed %d: close: %v", seed, err)
		}
		assertDirsIdentical(t, fullDir, appDir)
	}
}

// TestAppendReopenRoundTrip appends past a Flush, reopens the store,
// appends more, and checks every row and the skip evidence survive.
func TestAppendReopenRoundTrip(t *testing.T) {
	const total, segSize = 700, 128
	rows := segTestRows(total)
	tab := segTestTable(t, total)
	dir := t.TempDir()
	w, err := NewSegmentWriter(dir, tab.Schema(), SegmentWriterOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[:200] {
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir, tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendRows(rows[200:450]); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	bt, st2, err := OpenBackedTable(dir, tab.Schema())
	if err != nil {
		t.Fatalf("reopen mid-segment: %v", err)
	}
	defer st2.Close()
	if bt.Len() != 450 {
		t.Fatalf("reopened with %d rows, want 450", bt.Len())
	}
	if _, err := bt.AppendFacts(rows[450:]); err != nil {
		t.Fatalf("append through table: %v", err)
	}
	if bt.Len() != total {
		t.Fatalf("table len %d after append, want %d", bt.Len(), total)
	}
	for _, col := range []string{"K", "Term", "V", "FK"} {
		for _, v := range []relation.Value{
			relation.Int(3), relation.Int(600), relation.String("delta"), relation.Null(),
		} {
			want, got := tab.Lookup(col, v), bt.Lookup(col, v)
			if len(want) != len(got) {
				t.Fatalf("Lookup(%s, %#v): %d rows, want %d", col, v, len(got), len(want))
			}
		}
	}
	segs, ok := st2.ValueSegments("Term", relation.String("delta"))
	if !ok || len(segs) == 0 {
		t.Fatalf("term lists lost across append: segs=%v ok=%v", segs, ok)
	}
}

// TestAppendConcurrentReaders hammers a backed table with scans and
// lookups while a writer streams rows in, checking prefix consistency:
// every reader sees a row count it can fully resolve, and values below
// that count match the oracle. Run under -race this doubles as the
// persist-side data-race gate for streaming ingest.
func TestAppendConcurrentReaders(t *testing.T) {
	const total, segSize = 2048, 128
	rows := segTestRows(total)
	tab := segTestTable(t, total)
	dir := t.TempDir()
	w, err := NewSegmentWriter(dir, tab.Schema(), SegmentWriterOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows[:256] {
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bt, st, err := OpenBackedTable(dir, tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetCacheBudget(4 * segSize * 8) // keep the page cache churning

	oracleV := tab.FloatColumn("V")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rd := bt.FloatReader("V")
				n := rd.Len()
				for si := 0; si < relation.NumSegments(n, segSize); si++ {
					seg := rd.FloatSegment(si)
					for i, f := range seg {
						r := si*segSize + i
						if r >= n {
							break
						}
						want := oracleV[r]
						if f != want && !(f != f && want != want) {
							t.Errorf("row %d: %v want %v", r, f, want)
							return
						}
					}
				}
				if got := bt.Lookup("Term", relation.String("alpha")); len(got) == 0 {
					t.Error("alpha vanished mid-append")
					return
				}
			}
		}()
	}
	for i := 256; i < total; i += 64 {
		if _, err := bt.AppendFacts(rows[i : i+64]); err != nil {
			t.Fatalf("append at %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if bt.Len() != total {
		t.Fatalf("len %d, want %d", bt.Len(), total)
	}
}

// TestBackedAppendRejectsInexactInt: an integer beyond ±2^53 cannot
// round-trip a float64 column file. A backed table refuses it at
// AppendFacts — the whole batch, before any row lands — and the segment
// writer refuses it on the streaming build path, both naming table,
// column and value.
func TestBackedAppendRejectsInexactInt(t *testing.T) {
	tab := segTestTable(t, 100)
	dir := t.TempDir()
	if err := WriteTableSegments(dir, tab, SegmentWriterOptions{SegmentSize: 64}); err != nil {
		t.Fatal(err)
	}
	bt, st, err := OpenBackedTable(dir, tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const big = int64(1)<<53 + 1
	wantInexact := func(err error, col string) {
		t.Helper()
		if err == nil {
			t.Fatal("integer beyond 2^53 accepted")
		}
		for _, part := range []string{"T." + col, "9007199254740993", "2^53"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("error %q does not name %q", err, part)
			}
		}
	}
	good := segTestRows(101)[100]
	_, err = bt.AppendFacts([][]relation.Value{good,
		{relation.Int(102), relation.String("alpha"), relation.Float(1), relation.Int(-big)}})
	wantInexact(err, "FK")
	// Widening into a Float column is held to the same bound.
	_, err = bt.AppendFacts([][]relation.Value{
		{relation.Int(102), relation.String("alpha"), relation.Int(big), relation.Int(1)}})
	wantInexact(err, "V")
	if bt.Len() != 100 {
		t.Fatalf("rejected batches landed rows: len %d", bt.Len())
	}
	// ±2^53 itself is exact.
	if _, err := bt.AppendFacts([][]relation.Value{
		{relation.Int(big - 1), relation.String("alpha"), relation.Int(1 - big), relation.Int(1)}}); err != nil {
		t.Fatalf("2^53 rejected: %v", err)
	}
	if got := bt.Value(100, "K"); got != relation.Int(big-1) {
		t.Errorf("2^53 read back as %#v", got)
	}

	w, err := NewSegmentWriter(t.TempDir(), tab.Schema(), SegmentWriterOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	wantInexact(w.Append([]relation.Value{relation.Int(big), relation.String("alpha"), relation.Float(1), relation.Int(1)}), "K")
}
