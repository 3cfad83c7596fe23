package persist

import (
	"fmt"
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

// TestAppendConvergesOnWriterBytes appends a prefix of the rows to an
// empty store (nothing, mid-segment, a segment boundary, one row
// short), closes and reopens the directory, streams the rest through
// Table.AppendFacts in uneven batches, and requires every artifact —
// column files, manifest with zone maps, Bloom filters, dictionaries,
// term segment lists — to match the bytes the golden pins. This is the
// "no full rebuild anywhere" contract: however the rows are split, and
// across a reopen mid-segment, incremental maintenance lands on exactly
// one state.
func TestAppendConvergesOnWriterBytes(t *testing.T) {
	const total = 1000
	rows := segTestRows(total)
	schema := segTestTable(t, 0).Schema()
	for _, segSize := range []int{64, 128} {
		for _, seed := range []int{0, 300, 384, total - 1} {
			dir := t.TempDir()
			bt, st, err := CreateBackedTable(dir, schema, segSize)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bt.AppendFacts(rows[:seed]); err != nil {
				t.Fatalf("seg %d seed %d: %v", segSize, seed, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if bt, st, err = OpenBackedTable(dir, schema); err != nil {
				t.Fatalf("seg %d seed %d: reopen: %v", segSize, seed, err)
			}
			for i := seed; i < total; {
				n := min(1+i%171, total-i) // uneven batches, some crossing segment boundaries
				if _, err := bt.AppendFacts(rows[i : i+n]); err != nil {
					t.Fatalf("seg %d seed %d: append at %d: %v", segSize, seed, i, err)
				}
				i += n
			}
			if bt.Len() != total {
				t.Fatalf("seg %d seed %d: %d rows after append", segSize, seed, bt.Len())
			}
			if err := st.Close(); err != nil { // Close flushes the dirty tail
				t.Fatalf("seg %d seed %d: close: %v", segSize, seed, err)
			}
			assertGolden(t, dir, total, segSize)
		}
	}
}

// TestAppendReopenRoundTrip appends past a Flush, reopens the store,
// appends more, and checks every row and the skip evidence survive.
func TestAppendReopenRoundTrip(t *testing.T) {
	const total, segSize = 700, 128
	rows := segTestRows(total)
	tab := segTestTable(t, total)
	dir := t.TempDir()
	bt0, st0, err := CreateBackedTable(dir, tab.Schema(), segSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bt0.AppendFacts(rows[:200]); err != nil {
		t.Fatal(err)
	}
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}

	bt1, st1, err := OpenBackedTable(dir, tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bt1.AppendFacts(rows[200:450]); err != nil {
		t.Fatal(err)
	}
	if err := st1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
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
	// delta lives in the last quarter only: its term list must still let
	// the lookup skip every earlier segment.
	before := st2.Stats().SkippedBloom
	bt.Lookup("Term", relation.String("delta"))
	if st2.Stats().SkippedBloom == before {
		t.Fatal("term lists lost across reopen and append: the delta lookup skipped nothing")
	}
}

// TestAppendConcurrentReaders hammers a backed table with scans and
// lookups while a writer streams rows in, checking prefix consistency:
// every reader sees a row count it can fully resolve, and values below
// that count match the oracle. Open-segment headers are served without
// a copy, so each reader also keeps the last segment it read across the
// next passes — past the seal and into the next segment's appends — and
// re-checks it; the writer does the same with every open-segment header
// it takes. Run under -race this doubles as the persist-side data-race
// gate for streaming ingest.
func TestAppendConcurrentReaders(t *testing.T) {
	const total, segSize = 2048, 128
	rows := segTestRows(total)
	tab := segTestTable(t, total)
	bt, st, err := CreateBackedTable(t.TempDir(), tab.Schema(), segSize)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := bt.AppendFacts(rows[:256]); err != nil {
		t.Fatal(err)
	}
	st.SetCacheBudget(4 * segSize * 8) // keep the page cache churning

	oracleV := tab.FloatColumn("V")
	// checkSeg reports the first value of a float and a code segment
	// header starting at row base that disagrees with the oracle.
	checkSeg := func(base int, vals []float64, codes []int32) error {
		dict := bt.DictReader("Term").Dict()
		for i, f := range vals {
			if want := oracleV[base+i]; f != want && !(f != f && want != want) {
				return fmt.Errorf("row %d: V=%v want %v", base+i, f, want)
			}
		}
		for i, c := range codes {
			if got, want := dict[c], tab.Value(base+i, "Term"); got != want {
				return fmt.Errorf("row %d: Term=%v want %v", base+i, got, want)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				heldBase int
				heldV    []float64
				heldC    []int32
			)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := checkSeg(heldBase, heldV, heldC); err != nil {
					t.Errorf("held header: %v", err)
					return
				}
				rd, cd := bt.FloatReader("V"), bt.DictReader("Term")
				n := rd.Len()
				for si := 0; si < relation.NumSegments(n, segSize); si++ {
					heldBase, heldV, heldC = si*segSize, rd.FloatSegment(si), cd.CodeSegment(si)
					if err := checkSeg(heldBase, heldV, heldC); err != nil {
						t.Error(err)
						return
					}
				}
				if got := bt.Lookup("Term", relation.String("alpha")); len(got) == 0 {
					t.Error("alpha vanished mid-append")
					return
				}
			}
		}()
	}
	type held struct {
		base  int
		vals  []float64
		codes []int32
	}
	var headers []held
	writeErr := func() error {
		for i := 256; i < total; i += 64 {
			if _, err := bt.AppendFacts(rows[i : i+64]); err != nil {
				return fmt.Errorf("append at %d: %v", i, err)
			}
			si := (i + 63) / segSize
			headers = append(headers, held{si * segSize, bt.FloatReader("V").FloatSegment(si), bt.DictReader("Term").CodeSegment(si)})
			for _, h := range headers {
				if err := checkSeg(h.base, h.vals, h.codes); err != nil {
					return fmt.Errorf("after append at %d, header taken at row %d: %v", i, h.base, err)
				}
			}
		}
		return nil
	}()
	// The readers stop before the deferred Close releases the files.
	close(stop)
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}
	if bt.Len() != total {
		t.Fatalf("len %d, want %d", bt.Len(), total)
	}
}

var (
	sinkFloats []float64
	sinkCodes  []int32
)

// TestOpenSegmentServedWithoutCopy: a reader fetching the open
// segment gets the tail buffer itself, capped at its published length —
// no allocation per fetch, which Row, Value and Scan pay once per cell.
func TestOpenSegmentServedWithoutCopy(t *testing.T) {
	_, bt, _ := writeSegs(t, segTestTable(t, 300), 128)
	const open = 300 / 128
	frd, drd := bt.FloatReader("V"), bt.DictReader("Term")
	if n := testing.AllocsPerRun(100, func() { sinkFloats = frd.FloatSegment(open) }); n != 0 {
		t.Errorf("FloatSegment(open) allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkCodes = drd.CodeSegment(open) }); n != 0 {
		t.Errorf("CodeSegment(open) allocates %v times per call", n)
	}
	if f, c := frd.FloatSegment(open), drd.CodeSegment(open); len(f) != 300-open*128 || cap(f) != len(f) || cap(c) != len(c) {
		t.Errorf("open segment headers len/cap %d/%d and %d/%d, want %d rows capped", len(f), cap(f), len(c), cap(c), 300-open*128)
	}
}

// TestBackedAppendRejectsInexactInt: an integer beyond ±2^53 cannot
// round-trip a float64 column file. A backed table refuses it at
// AppendFacts — the whole batch, before any row lands — naming table,
// column and value.
func TestBackedAppendRejectsInexactInt(t *testing.T) {
	_, bt, _ := writeSegs(t, segTestTable(t, 100), 64)
	var err error
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
}
