package relation

import "math"

// Segmented column access. A column is exposed as a sequence of
// fixed-size segments (the table's SegmentSize rows, the last one
// short), so execution kernels can iterate storage-aligned spans
// instead of whole dense slices. A table's readers subslice its open
// tail at zero cost and fetch sealed segments from its pager; everything
// the kernels compute is a pure function of the values a reader yields,
// so where a segment lives never changes output bytes.

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
// ignoring NULL (NaN). It is the only zone-map type in the system: every
// table keeps one per segment of each numeric column as it appends (a
// paged store's manifest persists them). A zone with no numeric rows
// has Min > Max (the empty interval) and overlaps nothing.
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

// Segment is one column's rows of one segment: Floats for an Int or
// Float column (NaN for NULL), Codes for any other (-1 for NULL).
type Segment struct {
	Floats []float64
	Codes  []int32
}

// Pager is what makes a store paged: it takes each full segment off the
// store's hands and serves it back on demand, so the store holds one
// open segment in memory however long the table grows.
// internal/persist implements it over column files and a byte-budgeted
// page cache; the interface lives here so relation does not import
// persist.
type Pager interface {
	// Seal keeps full segment si: cols[ci] holds column ci's rows of
	// it. The store serves those rows from memory until Seal returns,
	// and only afterwards from ReadSegment.
	Seal(si int, cols []Segment) error
	// ReadSegment returns column ci's rows of sealed segment si. The
	// slices are shared and must not be modified.
	ReadSegment(ci, si int) Segment
	// NoteSkips folds a lookup scan's skipped segments into the pager's
	// skip counters: those ruled out by membership evidence (Bloom
	// filters and term lists) and those ruled out by zones.
	NoteSkips(bloom, zone int)
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
