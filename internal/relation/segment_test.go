package relation

import (
	"math"
	"testing"
)

func TestValidSegmentSize(t *testing.T) {
	for _, n := range []int{64, 128, 8192, 1 << 20} {
		if !ValidSegmentSize(n) {
			t.Errorf("ValidSegmentSize(%d) = false", n)
		}
	}
	for _, n := range []int{0, 1, 32, 63, 100, 8191, -64} {
		if ValidSegmentSize(n) {
			t.Errorf("ValidSegmentSize(%d) = true", n)
		}
	}
}

func TestNumSegments(t *testing.T) {
	cases := []struct{ n, ss, want int }{
		{0, 8192, 0}, {1, 8192, 1}, {8192, 8192, 1}, {8193, 8192, 2},
		{100, 64, 2}, {-5, 64, 0},
	}
	for _, c := range cases {
		if got := NumSegments(c.n, c.ss); got != c.want {
			t.Errorf("NumSegments(%d, %d) = %d, want %d", c.n, c.ss, got, c.want)
		}
	}
}

func TestResidentReadersAndCursors(t *testing.T) {
	n := 2*DefaultSegmentSize + 37 // three segments, short tail
	vals := make([]float64, n)
	codes := make([]int32, n)
	tab := NewTable(MustSchema("T", []Column{{Name: "S", Kind: KindString}}, "", nil))
	rows := make([][]Value, n)
	for i := range vals {
		vals[i] = float64(i) * 0.5
		codes[i] = int32(i % 7)
		rows[i] = []Value{String(string(rune('a' + i%7)))}
	}
	vals[5] = math.NaN()
	codes[6] = -1
	rows[6][0] = Null()
	if _, err := tab.AppendFacts(rows); err != nil {
		t.Fatal(err)
	}

	fr := ResidentFloats(vals)
	dr := tab.DictReader("S")
	if fr.Len() != n || dr.Len() != n {
		t.Fatalf("reader lengths %d/%d, want %d", fr.Len(), dr.Len(), n)
	}
	if got := len(fr.FloatSegment(2)); got != 37 {
		t.Fatalf("tail segment has %d rows, want 37", got)
	}

	fc := NewFloatCursor(fr)
	dc := NewDictCursor(dr)
	// Sequential pass, then backward jumps — cursors must refetch.
	for _, r := range []int{0, 1, 5, 6, DefaultSegmentSize - 1, DefaultSegmentSize, n - 1, 3, n - 1} {
		fv := fc.At(r)
		if !(fv == vals[r] || (math.IsNaN(fv) && math.IsNaN(vals[r]))) {
			t.Fatalf("FloatCursor.At(%d) = %v, want %v", r, fv, vals[r])
		}
		if cv := dc.At(r); cv != codes[r] {
			t.Fatalf("DictCursor.At(%d) = %d, want %d", r, cv, codes[r])
		}
	}
}

func TestCursorRejectsBadSegmentSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFloatCursor accepted a non-power-of-two segment size")
		}
	}()
	NewFloatCursor(badSizeReader{})
}

type badSizeReader struct{}

func (badSizeReader) Len() int                   { return 10 }
func (badSizeReader) SegmentSize() int           { return 100 }
func (badSizeReader) FloatSegment(int) []float64 { return nil }

func TestZoneOverlaps(t *testing.T) {
	z := Zone{Min: 10, Max: 20}
	for _, c := range []struct {
		lo, hi float64
		want   bool
	}{
		{0, 9, false}, {21, 30, false}, {0, 10, true}, {20, 99, true},
		{12, 13, true}, {0, math.Inf(1), true}, {math.Inf(-1), 5, false},
	} {
		if got := z.Overlaps(c.lo, c.hi); got != c.want {
			t.Errorf("Overlaps(%g,%g) = %v", c.lo, c.hi, got)
		}
	}
	if EmptyZone().Overlaps(math.Inf(-1), math.Inf(1)) {
		t.Error("empty zone overlapped the whole line")
	}
	e := EmptyZone()
	e.Observe(math.NaN())
	if e != EmptyZone() {
		t.Errorf("NaN widened a zone: %+v", e)
	}
}

// ExtendZones over a growing column must equal zones built in one pass,
// never write the slice it was handed, and leave all-NULL segments
// empty.
func TestExtendZones(t *testing.T) {
	const ss = 64
	vals := make([]float64, 5*ss+9)
	for i := range vals {
		vals[i] = float64((i * 7919) % 1000)
		if i%11 == 0 || i/ss == 2 { // segment 2 is all NULL
			vals[i] = math.NaN()
		}
	}
	whole := ExtendZones(nil, 0, vals, ss)
	if len(whole) != 6 {
		t.Fatalf("%d zones over %d rows", len(whole), len(vals))
	}
	if whole[2].Overlaps(math.Inf(-1), math.Inf(1)) {
		t.Errorf("all-NULL segment zone = %+v", whole[2])
	}
	for si, z := range whole {
		want := EmptyZone()
		for _, v := range vals[si*ss : min((si+1)*ss, len(vals))] {
			want.Observe(v)
		}
		if z != want {
			t.Errorf("zone %d = %+v, want %+v", si, z, want)
		}
	}
	var zones []Zone
	upTo := 0
	for _, n := range []int{1, ss - 1, ss, ss + 1, 3 * ss, 3*ss + 5, len(vals)} {
		before := append([]Zone(nil), zones...)
		next := ExtendZones(zones, upTo, vals[:n], ss)
		for i := range before {
			if zones[i] != before[i] {
				t.Fatalf("ExtendZones to %d rows wrote its input at %d", n, i)
			}
		}
		zones, upTo = next, n
	}
	for si := range whole {
		if zones[si] != whole[si] {
			t.Errorf("incremental zone %d = %+v, one-pass %+v", si, zones[si], whole[si])
		}
	}
}

// A table keeps one zone per segment of each numeric column and widens
// the open segment's past appended rows; columns without zones give
// none.
func TestTableSegmentZoneOverlaps(t *testing.T) {
	tab := NewTable(MustSchema("F", []Column{
		{Name: "Seq", Kind: KindInt},
		{Name: "V", Kind: KindFloat},
		{Name: "Label", Kind: KindString},
	}, "", nil))
	n := DefaultSegmentSize + 100
	for i := 0; i < n; i++ {
		v := Float(float64(i % 50))
		if i >= DefaultSegmentSize {
			v = Null() // the tail segment starts out all NULL
		}
		tab.MustAppend(Int(int64(i)), v, String("x"))
	}
	if tab.SegmentSize() != DefaultSegmentSize {
		t.Fatalf("SegmentSize = %d", tab.SegmentSize())
	}
	for _, c := range []struct {
		col          string
		si           int
		lo, hi       float64
		overlaps, ok bool
	}{
		{"Seq", 0, 0, 10, true, true},
		{"Seq", 0, float64(DefaultSegmentSize), math.Inf(1), false, true},
		{"Seq", 1, float64(DefaultSegmentSize), math.Inf(1), true, true},
		{"V", 1, math.Inf(-1), math.Inf(1), false, true}, // all NULL
		{"Seq", 2, 0, 1, true, false},                    // past the covered rows
		{"Label", 0, 0, 1, true, false},                  // not numeric
		{"Nope", 0, 0, 1, true, false},
	} {
		ov, ok := tab.SegmentZoneOverlaps(c.col, c.si, c.lo, c.hi)
		if ov != c.overlaps || ok != c.ok {
			t.Errorf("%s seg %d [%g,%g] = (%v,%v), want (%v,%v)", c.col, c.si, c.lo, c.hi, ov, ok, c.overlaps, c.ok)
		}
	}
	tab.MustAppend(Int(int64(n)), Float(7), String("y"))
	if ov, ok := tab.SegmentZoneOverlaps("V", 1, 7, 7); !ov || !ok {
		t.Errorf("tail zone did not widen over the appended row: (%v,%v)", ov, ok)
	}
	if ov, _ := tab.SegmentZoneOverlaps("Seq", 1, float64(n), float64(n)); !ov {
		t.Error("Seq tail zone did not widen over the appended row")
	}
}
