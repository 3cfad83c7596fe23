package relation

import (
	"fmt"
	"math"
)

// Segmented column access. A column is exposed as a sequence of
// fixed-size segments (DefaultSegmentSize rows, the last one short), so
// execution kernels can iterate storage-aligned spans instead of whole
// dense slices. Two families of readers implement the interfaces: the
// resident ones below, which subslice the Table's columns at zero
// cost, and the disk-backed ones in internal/persist, which page
// segments in from column files under a byte budget. Everything the
// kernels compute is a pure function of the values a reader yields, so
// swapping one family for the other never changes output bytes.

// DefaultSegmentSize is the number of rows per column segment. Segment
// sizes must be powers of two so row→segment mapping is a shift.
const DefaultSegmentSize = 8192

// ValidSegmentSize reports whether n is a usable segment size: a power
// of two of at least 64 rows (smaller segments drown in per-segment
// bookkeeping).
func ValidSegmentSize(n int) bool {
	return n >= 64 && n&(n-1) == 0
}

// NumSegments returns how many segments cover n rows at the given
// segment size.
func NumSegments(n, segSize int) int {
	if n <= 0 {
		return 0
	}
	return (n + segSize - 1) / segSize
}

// Zone is the min/max summary of a numeric column over one segment,
// ignoring NULL (NaN). It is the only zone-map type in the system: the
// segment stores persist it, resident tables derive it lazily from
// their float columns, and the executor keeps it over fact-aligned
// dimension-attribute columns. A zone with no numeric rows has
// Min > Max (the empty interval) and overlaps nothing.
type Zone struct{ Min, Max float64 }

// EmptyZone is the identity for zone accumulation.
func EmptyZone() Zone { return Zone{Min: math.Inf(1), Max: math.Inf(-1)} }

// Overlaps reports whether any value in the zone can fall in the closed
// interval [lo, hi]. Conservative by construction: true only means the
// segment must be scanned, never that it matches.
func (z Zone) Overlaps(lo, hi float64) bool {
	return z.Min <= z.Max && z.Min <= hi && z.Max >= lo
}

// Observe folds one value into the zone; NaN is ignored.
func (z *Zone) Observe(v float64) {
	if v < z.Min {
		z.Min = v
	}
	if v > z.Max {
		z.Max = v
	}
}

// ExtendZones returns per-segment zones covering every row of vals,
// given zones that already cover its first upTo rows. The input slice
// is never written (copy-on-grow), so readers holding it keep a
// consistent, merely narrower, view; zones only ever widen, so an older
// slice stays conservative for the prefix it covers.
func ExtendZones(zones []Zone, upTo int, vals []float64, segSize int) []Zone {
	if upTo >= len(vals) {
		return zones
	}
	out := make([]Zone, NumSegments(len(vals), segSize))
	copy(out, zones)
	for si := len(zones); si < len(out); si++ {
		out[si] = EmptyZone()
	}
	for si := upTo / segSize; si < len(out); si++ {
		z := &out[si]
		for _, v := range vals[max(si*segSize, upTo):min((si+1)*segSize, len(vals))] {
			z.Observe(v)
		}
	}
	return out
}

// FloatReader yields a numeric column segment by segment as float64
// (NaN marks NULL). Implementations must be safe for concurrent use;
// returned slices are shared and must not be modified.
type FloatReader interface {
	// Len returns the column's row count.
	Len() int
	// SegmentSize returns the fixed segment size (a power of two).
	SegmentSize() int
	// FloatSegment returns the values of segment si — rows
	// [si*SegmentSize, min((si+1)*SegmentSize, Len)).
	FloatSegment(si int) []float64
}

// DictReader yields a dictionary-encoded column segment by segment:
// codes index Dict, -1 marks NULL. Implementations must be safe for
// concurrent use; returned slices are shared and must not be modified.
type DictReader interface {
	Len() int
	SegmentSize() int
	// CodeSegment returns the codes of segment si.
	CodeSegment(si int) []int32
	// Dict returns the dictionary: distinct non-NULL values in
	// first-seen row order.
	Dict() []Value
}

// ColumnBacking is the storage provider behind a Table whose rows are
// not resident: per-column segmented readers plus the per-segment skip
// evidence (zone maps over numeric columns, Bloom filters over key-like
// and term columns) that lets scans prove a segment irrelevant without
// reading it. internal/persist implements it over mmap-able column
// files; the interface lives here so relation does not import persist.
type ColumnBacking interface {
	// NumRows returns the backed table's row count.
	NumRows() int
	// SegmentSize returns the backing's fixed segment size.
	SegmentSize() int
	// FloatReader returns the segmented float view of a numeric column,
	// or nil when the column is not numeric-backed.
	FloatReader(col string) FloatReader
	// DictReader returns the segmented dictionary view of a non-numeric
	// column, or nil.
	DictReader(col string) DictReader
	// SegmentMayContain reports Bloom evidence for one segment of col:
	// (false, true) proves the segment does not contain v; (true, true)
	// means it may. hasBloom false means no filter exists for the column
	// and the segment must be scanned.
	SegmentMayContain(col string, si int, v Value) (maybe, hasBloom bool)
	// SegmentZoneOverlaps reports zone-map evidence: whether any value
	// in segment si of col can fall in the closed interval [lo, hi].
	// hasZone false means the column carries no zone maps.
	SegmentZoneOverlaps(col string, si int, lo, hi float64) (overlaps, hasZone bool)
	// NoteSkips folds a scan's planning verdict into the backing's
	// skip counters (kdap_segments_skipped_{bloom,zone}_total).
	NoteSkips(bloom, zone int)
}

// AppendableBacking is the optional mutation extension of a
// ColumnBacking: a backing that can accept new rows at the tail while
// concurrent readers keep scanning. Rows arrive validated against the
// table schema (Column.Coerce); an Int bound for a Float column is
// widened by the backing. Implementations must keep every
// published segment, zone map, Bloom filter, and term segment list
// consistent with the row count they report — a reader that observed
// NumRows() == n must be able to read all n rows' evidence.
type AppendableBacking interface {
	// AppendRows appends the rows at the tail of every column.
	AppendRows(rows [][]Value) error
}

// TermSegmenter is the optional skip-list extension of a ColumnBacking:
// for full-text columns the disk format records, per distinct value,
// the ascending list of segments containing it. ok is false when the
// column carries no lists; an empty list with ok true proves the value
// absent everywhere. The fulltext index and the semijoin use the lists
// to turn a term lookup into a scan of just the segments that matter.
type TermSegmenter interface {
	ValueSegments(col string, v Value) ([]int32, bool)
}

// residentFloats adapts a dense float column to FloatReader.
type residentFloats struct{ vals []float64 }

func (r residentFloats) Len() int         { return len(r.vals) }
func (r residentFloats) SegmentSize() int { return DefaultSegmentSize }
func (r residentFloats) FloatSegment(si int) []float64 {
	lo := si * DefaultSegmentSize
	return r.vals[lo:min(lo+DefaultSegmentSize, len(r.vals))]
}

// ResidentFloats wraps a dense float column in a FloatReader with the
// default segment size. The slice is shared, not copied.
func ResidentFloats(vals []float64) FloatReader { return residentFloats{vals} }

// residentCodes adapts a dense code column to DictReader.
type residentCodes struct {
	codes []int32
	dict  []Value
}

func (r residentCodes) Len() int         { return len(r.codes) }
func (r residentCodes) SegmentSize() int { return DefaultSegmentSize }
func (r residentCodes) Dict() []Value    { return r.dict }
func (r residentCodes) CodeSegment(si int) []int32 {
	lo := si * DefaultSegmentSize
	return r.codes[lo:min(lo+DefaultSegmentSize, len(r.codes))]
}

// ResidentCodes wraps a dense dictionary-coded column in a DictReader
// with the default segment size. The slices are shared, not copied.
func ResidentCodes(codes []int32, dict []Value) DictReader { return residentCodes{codes, dict} }

// FloatCursor is a sequential random-access view over a FloatReader:
// At(row) fetches the row's segment on first touch and serves
// subsequent rows of the same segment from it. Row sets handed to the
// kernels are sorted, so a cursor fetches each segment at most once per
// pass. Not safe for concurrent use — each worker takes its own.
type FloatCursor struct {
	rd    FloatReader
	seg   []float64
	si    int
	shift uint
}

// NewFloatCursor returns a cursor over rd. The reader's segment size
// must be a power of two.
func NewFloatCursor(rd FloatReader) *FloatCursor {
	ss := rd.SegmentSize()
	if !ValidSegmentSize(ss) {
		panic(fmt.Sprintf("relation: invalid segment size %d", ss))
	}
	return &FloatCursor{rd: rd, si: -1, shift: uint(shiftFor(ss))}
}

// At returns the value at row r.
func (c *FloatCursor) At(r int) float64 {
	si := r >> c.shift
	if si != c.si {
		c.seg, c.si = c.rd.FloatSegment(si), si
	}
	return c.seg[r-si<<c.shift]
}

// DictCursor is the dictionary-coded counterpart of FloatCursor.
type DictCursor struct {
	rd    DictReader
	seg   []int32
	si    int
	shift uint
}

// NewDictCursor returns a cursor over rd.
func NewDictCursor(rd DictReader) *DictCursor {
	ss := rd.SegmentSize()
	if !ValidSegmentSize(ss) {
		panic(fmt.Sprintf("relation: invalid segment size %d", ss))
	}
	return &DictCursor{rd: rd, si: -1, shift: uint(shiftFor(ss))}
}

// At returns the code at row r.
func (c *DictCursor) At(r int) int32 {
	si := r >> c.shift
	if si != c.si {
		c.seg, c.si = c.rd.CodeSegment(si), si
	}
	return c.seg[r-si<<c.shift]
}

// shiftFor returns log2(n) for a power-of-two n.
func shiftFor(n int) int {
	s := 0
	for 1<<uint(s) < n {
		s++
	}
	return s
}
