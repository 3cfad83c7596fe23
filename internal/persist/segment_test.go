package persist

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kdap/internal/relation"
)

// segTestTable builds a mixed-kind table: an int key (ingest-clustered),
// a dict-coded full-text term column, a float measure with NULLs, and
// an FK-like code column.
func segTestTable(t *testing.T, rows int) *relation.Table {
	t.Helper()
	schema := relation.MustSchema("T", []relation.Column{
		{Name: "K", Kind: relation.KindInt},
		{Name: "Term", Kind: relation.KindString, FullText: true},
		{Name: "V", Kind: relation.KindFloat},
		{Name: "FK", Kind: relation.KindInt},
	}, "K", []relation.ForeignKey{
		{Column: "FK", RefTable: "D", RefColumn: "DK"},
	})
	tab := relation.NewTable(schema)
	terms := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < rows; i++ {
		v := relation.Float(float64(i%97) * 1.5)
		if i%13 == 0 {
			v = relation.Null()
		}
		// Terms are clustered: each quarter of the table sticks to one
		// term, so term segment lists actually restrict scans.
		term := terms[i*len(terms)/rows]
		tab.MustAppend(relation.Int(int64(i+1)), relation.String(term), v, relation.Int(int64(i/64)))
	}
	tab.Freeze()
	return tab
}

// writeSegs builds a flushed backed copy of tab the one way a backed
// table is built: its rows appended to an empty store in segment-sized
// batches.
func writeSegs(t *testing.T, tab *relation.Table, segSize int) (string, *relation.Table, *Store) {
	t.Helper()
	dir := t.TempDir()
	bt, store, err := CreateBackedTable(dir, tab.Schema(), segSize)
	if err != nil {
		t.Fatalf("create backed: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	ba := relation.NewBatchAppender(bt)
	for id := 0; id < tab.Len(); id++ {
		if err := ba.Append(tab.Row(id)); err != nil {
			t.Fatalf("append row %d: %v", id, err)
		}
	}
	if err := ba.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	return dir, bt, store
}

// assertGolden requires dir to hold exactly the files
// testdata/segments.golden lists for segTestRows(rows) at segSize, each
// with its pinned SHA-256. The golden was taken from the streaming
// segment writer the append path replaced, and is never regenerated:
// it is what keeps the format stable now that its only encoder is the
// append path itself.
func assertGolden(t *testing.T, dir string, rows, segSize int) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "segments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := fmt.Sprintf("rows=%d seg=%d ", rows, segSize)
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			name, sum, _ := strings.Cut(rest, " ")
			want[name] = sum
		}
	}
	if len(want) == 0 {
		t.Fatalf("segments.golden has no entry for %q", prefix)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(want) {
		t.Fatalf("%s: %d files, golden lists %d", prefix, len(ents), len(want))
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want[e.Name()] {
			t.Errorf("%s%s: sha256 %s, golden %q", prefix, e.Name(), got, want[e.Name()])
		}
	}
}

// TestSegmentRoundTripRows verifies every row survives the disk
// round-trip, including NULLs (NaN floats, -1 codes) and the Int→Float
// widening the float storage applies.
func TestSegmentRoundTripRows(t *testing.T) {
	tab := segTestTable(t, 1000)
	_, bt, _ := writeSegs(t, tab, 128)
	if bt.Len() != tab.Len() {
		t.Fatalf("backed len %d, want %d", bt.Len(), tab.Len())
	}
	for r := 0; r < tab.Len(); r++ {
		want, got := tab.Row(r), bt.Row(r)
		for ci := range want {
			w, g := want[ci], got[ci]
			if w.IsNull() && g.IsNull() {
				continue
			}
			// Numeric columns store float64: Int(5) comes back Float(5).
			if w.Numeric() && g.Numeric() {
				if w.AsFloat() != g.AsFloat() {
					t.Fatalf("row %d col %d: %v != %v", r, ci, w, g)
				}
				continue
			}
			if !w.Equal(g) {
				t.Fatalf("row %d col %d: %v != %v", r, ci, w, g)
			}
		}
	}
}

// TestSegmentRederivedIdentical builds a backed table from the rows,
// rebuilds a second one from the first one's decoded rows, and requires
// both directories — manifest (zone maps, Bloom filters, dictionaries,
// term segment lists) and every column file — to match the golden.
func TestSegmentRederivedIdentical(t *testing.T) {
	for _, segSize := range []int{64, 128} {
		dir1, bt, _ := writeSegs(t, segTestTable(t, 1000), segSize)
		assertGolden(t, dir1, 1000, segSize)
		dir2, _, _ := writeSegs(t, bt, segSize)
		assertGolden(t, dir2, 1000, segSize)
	}
}

// TestCreateBackedTableEmpty: a created, never appended directory is
// the format's zero-row directory, flushed or not, and reopens empty.
func TestCreateBackedTableEmpty(t *testing.T) {
	for _, segSize := range []int{64, 128} {
		dir, bt, store := writeSegs(t, segTestTable(t, 0), segSize)
		if bt.Len() != 0 {
			t.Fatalf("created table holds %d rows", bt.Len())
		}
		assertGolden(t, dir, 0, segSize)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		assertGolden(t, dir, 0, segSize)
		reopened, st, err := OpenBackedTable(dir, bt.Schema())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if reopened.Len() != 0 {
			t.Fatalf("reopened with %d rows", reopened.Len())
		}
		st.Close()
	}
	if _, _, err := CreateBackedTable(t.TempDir(), segTestTable(t, 0).Schema(), 100); err == nil {
		t.Fatal("segment size 100 accepted")
	}
}

// TestBackedLookupKindExact checks backed lookups keep the hash-index
// semantics: Int and Float values only match their own kind, NULL
// matches stored NULLs, and strings resolve through the dictionary.
func TestBackedLookupKindExact(t *testing.T) {
	tab := segTestTable(t, 500)
	_, bt, _ := writeSegs(t, tab, 128)
	for _, col := range []string{"K", "Term", "V", "FK"} {
		for _, v := range []relation.Value{
			relation.Int(3), relation.Float(3), relation.Float(4.5),
			relation.String("beta"), relation.String("nope"), relation.Null(),
		} {
			want := tab.Lookup(col, v)
			got := bt.Lookup(col, v)
			if len(want) != len(got) {
				t.Fatalf("Lookup(%s, %#v): %d rows backed, want %d", col, v, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("Lookup(%s, %#v): row %d is %d, want %d", col, v, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStoreEvictionUnderBudget forces the page cache below one
// column's worth of segments and checks reads stay correct while the
// budget holds.
func TestStoreEvictionUnderBudget(t *testing.T) {
	tab := segTestTable(t, 4096)
	_, bt, store := writeSegs(t, tab, 128)
	store.SetCacheBudget(2 * 128 * 8) // two float segments
	rd := bt.FloatReader("V")
	for pass := 0; pass < 3; pass++ {
		for si := 0; si < relation.NumSegments(bt.Len(), 128); si++ {
			seg := rd.FloatSegment(si)
			want := tab.FloatColumn("V")[si*128 : min((si+1)*128, tab.Len())]
			for i := range seg {
				if seg[i] != want[i] && !(seg[i] != seg[i] && want[i] != want[i]) {
					t.Fatalf("pass %d seg %d row %d: %v want %v", pass, si, i, seg[i], want[i])
				}
			}
		}
	}
	st := store.Stats()
	if st.Evicted == 0 {
		t.Fatalf("no evictions under a 2-segment budget: %+v", st)
	}
	if st.PagedIn <= st.Resident && st.PagedIn == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

// TestStoreSkipEvidence checks the skip counters: a lookup for a value
// outside every zone skips via zone maps; a lookup for an absent value
// inside the key range skips via Bloom filters (FK carries Blooms by
// default).
func TestStoreSkipEvidence(t *testing.T) {
	tab := segTestTable(t, 4096)
	_, bt, store := writeSegs(t, tab, 128)
	if rows := bt.Lookup("FK", relation.Int(1<<40)); len(rows) != 0 {
		t.Fatalf("phantom rows for out-of-range FK: %d", len(rows))
	}
	st := store.Stats()
	if st.SkippedZone == 0 {
		t.Fatalf("out-of-range lookup skipped no segments by zone: %+v", st)
	}
	// K is ingest-clustered 1..n: any absent value still falls inside
	// some segment's zone, so pruning it needs the Bloom filter — but K
	// is the primary key, not an FK/term column, so by default it has
	// zones only. FK=7 exists; FK values are i/64 so e.g. 63 is present
	// only late in the table. Use a present-but-rare term instead: every
	// "alpha" row lives in the first quarter, and Bloom filters on the
	// Term column prove the rest of the segments clean.
	before := store.Stats()
	rows := bt.Lookup("Term", relation.String("alpha"))
	if len(rows) != len(tab.Lookup("Term", relation.String("alpha"))) {
		t.Fatalf("term lookup row count diverges")
	}
	after := store.Stats()
	if after.SkippedBloom <= before.SkippedBloom {
		t.Fatalf("clustered term lookup skipped no segments by Bloom: before %+v after %+v", before, after)
	}
}

// TestValueSegmentsTermLists checks the manifest's per-term segment
// lists — present terms list exactly the segments holding them, absent
// terms are in no list — and that a lookup scans exactly the listed
// segments, counting the rest as skipped on membership evidence.
func TestValueSegmentsTermLists(t *testing.T) {
	tab := segTestTable(t, 1024)
	dir, bt, store := writeSegs(t, tab, 128)
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	term := m.cols[1]
	code := slices.Index(term.dict, relation.String("alpha"))
	if term.termSegs == nil || code < 0 {
		t.Fatalf("Term column carries no segment list for alpha: dict %v", term.dict)
	}
	want := tab.Lookup("Term", relation.String("alpha"))
	var wantSegs []int32
	for _, r := range want {
		if si := int32(r / 128); len(wantSegs) == 0 || wantSegs[len(wantSegs)-1] != si {
			wantSegs = append(wantSegs, si)
		}
	}
	if segs := term.termSegs[code]; !slices.Equal(segs, wantSegs) {
		t.Fatalf("alpha's segment list = %v, want %v", segs, wantSegs)
	}
	if slices.Contains(term.dict, relation.String("nope")) {
		t.Fatal("absent term in the dictionary")
	}
	before := store.Stats().SkippedBloom
	if rows := bt.Lookup("Term", relation.String("alpha")); !slices.Equal(rows, want) {
		t.Fatalf("Lookup(alpha) returned %d rows, want %d", len(rows), len(want))
	}
	if skipped, want := store.Stats().SkippedBloom-before, int64(relation.NumSegments(1024, 128)-len(wantSegs)); skipped != want {
		t.Fatalf("Lookup(alpha) skipped %d segments on membership evidence, want %d", skipped, want)
	}
}

// TestOpenStoreRejectsCorruptSizes checks that a column file whose size
// disagrees with the manifest's row count fails to open instead of
// reading garbage.
func TestOpenStoreRejectsCorruptSizes(t *testing.T) {
	tab := segTestTable(t, 300)
	dir, _, _ := writeSegs(t, tab, 128)
	// Truncate one column file.
	path := filepath.Join(dir, "col_2.dat")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenBackedTable(dir, tab.Schema()); err == nil {
		t.Fatal("OpenBackedTable accepted a truncated column file")
	}
}
