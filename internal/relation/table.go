package relation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Table is an append-only relation. Rows are identified by dense integer
// row IDs (their insertion position), which the rest of the system uses
// as compact fact/dimension handles.
//
// Typed columns are the storage. A resident table holds one []float64
// per Int/Float column (NaN marks NULL) and a []int32 code vector plus a
// first-seen dictionary per column of any other kind — the same
// representation internal/persist pages from disk, with memory as the
// backing. There is no boxed row store underneath: Row, Scan and Filter
// materialise []Value rows from the columns for exports, integrity
// checks and test oracles.
//
// An append writes the column tails and publishes one immutable
// snapshot (row count + column headers) through an atomic pointer, so a
// reader sees every column at the length current when its access
// started — a consistent prefix, never a torn row — and appends are safe
// concurrently with readers. Appends themselves are serialized by a
// writer mutex. Hash indexes (Lookup) and zones (SegmentZoneOverlaps)
// are derived lazily under their own locks and tail-extended on demand.
type Table struct {
	schema *Schema

	// cur is a resident table's published snapshot; nil when backed.
	cur atomic.Pointer[snapshot]
	// appendMu serializes writers and guards codeOf.
	appendMu sync.Mutex
	// codeOf is the writer's value→code map per dictionary-coded column
	// (nil entries for numeric columns).
	codeOf []map[Value]int32

	idxMu   sync.RWMutex
	indexes map[string]*colIndex

	// colMu guards the derived views below, each built on first use and
	// extended in place (or copy-on-grow) past appended rows.
	colMu sync.RWMutex
	// numDicts holds dictionary views of resident numeric columns, for
	// group-bys over numeric attributes.
	numDicts map[int]*numDict
	// zoneCols holds a resident table's per-segment zone maps.
	zoneCols map[int]colZones
	// dictIdx caches, per backed dict column, the value→code map used
	// to translate lookup values into codes.
	dictIdx map[int]map[Value]int32

	// backing, when non-nil, makes this a backed table: every access
	// goes through the segmented column readers (see segment.go). Backed
	// tables carry no hash indexes (lookups are Bloom/zone-pruned segment
	// scans), never materialize whole dense columns, and accept appends
	// only when the backing implements AppendableBacking.
	backing ColumnBacking
}

// column is one resident column: floats for Int/Float kinds, codes and
// dict for every other kind. Appends write past the published len of
// the slices and never rewrite a published element, so headers handed
// to readers stay valid forever.
type column struct {
	floats []float64
	codes  []int32
	dict   []Value
}

// snapshot is one published state of a resident table: every column
// holds exactly n rows.
type snapshot struct {
	n    int
	cols []column
}

// colIndex is one column's hash index together with the number of rows
// it covers, so an index built from an older snapshot is extended — not
// rebuilt — the next time it is consulted.
type colIndex struct {
	buckets map[Value][]int
	n       int // rows covered
}

// numDict is the dictionary view of a resident numeric column:
// codes[row] indexes dict (distinct values in first-seen row order), -1
// where the cell is NULL. code is the reverse map kept so the view can
// be extended without rescanning.
type numDict struct {
	codes []int32
	dict  []Value
	code  map[float64]int32
}

// colZones is one column's per-segment zones plus the rows they cover.
type colZones struct {
	zones []Zone
	upTo  int
}

// hashIndexMaxRows is the largest table Freeze pre-builds key indexes
// for. Hash indexes serve lookups *into* a table — a dimension key
// resolved while a fact→dimension mapping is built, a snowflake hop
// between dimension tables — and nothing looks up into the fact table:
// the semijoin into facts is a scan of that mapping (olap). At ~100
// bytes per indexed row a fact-sized index would cost more than the
// columns it indexes.
const hashIndexMaxRows = 1 << 16

// maxExactInt bounds the integers a float64 column stores exactly.
const maxExactInt = 1 << 53

func numeric(k Kind) bool { return k == KindInt || k == KindFloat }

// numericValue boxes a numeric cell: NaN is NULL.
func numericValue(k Kind, f float64) Value {
	switch {
	case math.IsNaN(f):
		return Null()
	case k == KindInt:
		return Int(int64(f))
	default:
		return Float(f)
	}
}

// Coerce validates v for storage in column c of the named table. NULL
// and values of the column's kind are accepted, and an Int is accepted
// into a Float column (columns hold it widened). An Int beyond ±2^53 is
// rejected: numeric columns are float64, which cannot represent it
// exactly, and a silently rounded key would join the wrong row.
func (c Column) Coerce(table string, v Value) error {
	switch {
	case v.IsNull():
		return nil
	case v.Kind() == KindInt && numeric(c.Kind):
		if i := v.IntVal(); i > maxExactInt || i < -maxExactInt {
			return fmt.Errorf("relation: %s.%s: integer %d is beyond ±2^53 and cannot be stored exactly in a float64 column",
				table, c.Name, i)
		}
		return nil
	case v.Kind() == c.Kind:
		return nil
	}
	return fmt.Errorf("relation: %s.%s: cannot store %s value %#v in %s column",
		table, c.Name, v.Kind(), v, c.Kind)
}

// NewTable creates an empty resident table with the given schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		indexes: make(map[string]*colIndex),
		codeOf:  make([]map[Value]int32, len(schema.Columns)),
	}
	for ci, c := range schema.Columns {
		if !numeric(c.Kind) {
			t.codeOf[ci] = make(map[Value]int32)
		}
	}
	t.cur.Store(&snapshot{cols: make([]column, len(schema.Columns))})
	return t
}

// NewBackedTable creates a table whose column storage lives behind the
// given backing (typically persist's segment store). The backing must
// provide a reader for every schema column: FloatReader for numeric
// columns, DictReader otherwise.
func NewBackedTable(schema *Schema, backing ColumnBacking) (*Table, error) {
	for _, c := range schema.Columns {
		if numeric(c.Kind) {
			if backing.FloatReader(c.Name) == nil {
				return nil, fmt.Errorf("relation: %s: backing has no float reader for column %q", schema.Name, c.Name)
			}
		} else if backing.DictReader(c.Name) == nil {
			return nil, fmt.Errorf("relation: %s: backing has no dict reader for column %q", schema.Name, c.Name)
		}
	}
	return &Table{schema: schema, backing: backing, dictIdx: make(map[int]map[Value]int32)}, nil
}

// Backing returns the table's column backing, or nil for a resident
// table. Execution layers use it to reach the paging counters and the
// cache budget; segment skip evidence is asked of the Table itself.
func (t *Table) Backing() ColumnBacking { return t.backing }

// SegmentSize returns the row count of the table's physical unit: the
// backing's segment size, or DefaultSegmentSize for a resident table.
func (t *Table) SegmentSize() int {
	if t.backing != nil {
		return t.backing.SegmentSize()
	}
	return DefaultSegmentSize
}

// SegmentZoneOverlaps reports zone-map evidence for any table: whether
// a value in segment si of col can fall in the closed interval
// [lo, hi]. hasZone false (non-numeric or unknown column, segment past
// the covered rows) means no evidence — the segment must be scanned. A
// backed table answers from its store's manifest; a resident table from
// zones derived lazily off the column, covering at least the rows
// published when the call started.
func (t *Table) SegmentZoneOverlaps(col string, si int, lo, hi float64) (overlaps, hasZone bool) {
	if t.backing != nil {
		return t.backing.SegmentZoneOverlaps(col, si, lo, hi)
	}
	ci := t.schema.ColumnIndex(col)
	if ci < 0 || !numeric(t.schema.Columns[ci].Kind) {
		return true, false
	}
	vals := t.cur.Load().cols[ci].floats
	t.colMu.RLock()
	z := t.zoneCols[ci]
	t.colMu.RUnlock()
	if z.upTo < len(vals) {
		t.colMu.Lock()
		if z = t.zoneCols[ci]; z.upTo < len(vals) {
			z = colZones{zones: ExtendZones(z.zones, z.upTo, vals, DefaultSegmentSize), upTo: len(vals)}
			if t.zoneCols == nil {
				t.zoneCols = make(map[int]colZones)
			}
			t.zoneCols[ci] = z
		}
		t.colMu.Unlock()
	}
	if si < 0 || si >= len(z.zones) {
		return true, false
	}
	return z.zones[si].Overlaps(lo, hi), true
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.backing != nil {
		return t.backing.NumRows()
	}
	return t.cur.Load().n
}

// Append validates the row against the schema and appends it, returning
// the new row ID.
func (t *Table) Append(row []Value) (int, error) {
	return t.AppendFacts([][]Value{row})
}

// AppendFacts validates and appends a batch of rows, returning the row
// ID of the first appended row; the whole batch is rejected, before any
// row lands, on the first value Column.Coerce refuses. It is the
// streaming-ingest entry point: safe to call concurrently with readers,
// which keep seeing a consistent prefix of the table. The rows are
// scattered into the column tails on the writer's side and published as
// one snapshot; hash indexes and zones catch up lazily on the read side.
// On a backed table the rows are handed to the backing, which must
// implement AppendableBacking.
func (t *Table) AppendFacts(rows [][]Value) (int, error) {
	cols := t.schema.Columns
	for _, row := range rows {
		if len(row) != len(cols) {
			return 0, fmt.Errorf("relation: %s: row arity %d, want %d", t.Name(), len(row), len(cols))
		}
		for i, v := range row {
			if err := cols[i].Coerce(t.Name(), v); err != nil {
				return 0, err
			}
		}
	}

	t.appendMu.Lock()
	defer t.appendMu.Unlock()

	if t.backing != nil {
		ab, ok := t.backing.(AppendableBacking)
		if !ok {
			return 0, fmt.Errorf("relation: %s: backing does not support appends", t.Name())
		}
		start := t.backing.NumRows()
		if err := ab.AppendRows(rows); err != nil {
			return 0, err
		}
		return start, nil
	}

	// When append grows a column in place the new elements land beyond
	// every published snapshot's len, so concurrent readers are
	// unaffected; when it reallocates, older snapshots keep their own
	// array.
	s := t.cur.Load()
	grown := make([]column, len(cols))
	for ci, c := range s.cols {
		if codeOf := t.codeOf[ci]; codeOf == nil {
			for _, row := range rows {
				c.floats = append(c.floats, row[ci].FloatOrNaN())
			}
		} else {
			for _, row := range rows {
				v, code := row[ci], int32(-1)
				if !v.IsNull() {
					var ok bool
					if code, ok = codeOf[v]; !ok {
						code = int32(len(c.dict))
						codeOf[v] = code
						c.dict = append(c.dict, v)
					}
				}
				c.codes = append(c.codes, code)
			}
		}
		grown[ci] = c
	}
	t.cur.Store(&snapshot{n: s.n + len(rows), cols: grown})
	return s.n, nil
}

// BatchAppender fills a table one segment-sized AppendFacts batch at a
// time — one validation pass, column scatter and publication per batch
// instead of per row — so loaders stream any number of rows while
// holding at most one batch of them.
type BatchAppender struct {
	t     *Table
	batch [][]Value
}

// NewBatchAppender returns a BatchAppender over t whose batches are
// t.SegmentSize() rows.
func NewBatchAppender(t *Table) *BatchAppender {
	return &BatchAppender{t: t, batch: make([][]Value, 0, t.SegmentSize())}
}

// Append queues row, which is kept rather than copied, and appends the
// batch once it is full. An error is AppendFacts' refusal of the whole
// batch.
func (b *BatchAppender) Append(row []Value) error {
	if b.batch = append(b.batch, row); len(b.batch) < cap(b.batch) {
		return nil
	}
	return b.Flush()
}

// Flush appends the queued rows.
func (b *BatchAppender) Flush() error {
	if len(b.batch) == 0 {
		return nil
	}
	_, err := b.t.AppendFacts(b.batch)
	b.batch = b.batch[:0]
	return err
}

// MustAppend is Append that panics on error; for statically known rows.
func (t *Table) MustAppend(row ...Value) int {
	id, err := t.Append(row)
	if err != nil {
		panic(err)
	}
	return id
}

// cell boxes one cell. s is the resident snapshot the caller loaded
// (one snapshot per row keeps the row consistent), nil on a backed
// table.
func (t *Table) cell(s *snapshot, id, ci int) Value {
	c := t.schema.Columns[ci]
	if s != nil {
		if numeric(c.Kind) {
			return numericValue(c.Kind, s.cols[ci].floats[id])
		}
		if code := s.cols[ci].codes[id]; code >= 0 {
			return s.cols[ci].dict[code]
		}
		return Null()
	}
	ss := t.backing.SegmentSize()
	si, off := id/ss, id%ss
	if numeric(c.Kind) {
		return numericValue(c.Kind, t.backing.FloatReader(c.Name).FloatSegment(si)[off])
	}
	rd := t.backing.DictReader(c.Name)
	if code := rd.CodeSegment(si)[off]; code >= 0 {
		return rd.Dict()[code]
	}
	return Null()
}

// Row materialises row id from the columns into a fresh slice. Correct
// but per-value, and an allocation per call: kernels read columns
// through FloatReader/DictReader, or reuse a scratch row via RowInto.
func (t *Table) Row(id int) []Value { return t.RowInto(nil, id) }

// RowInto is Row writing into dst (reallocated only when too short),
// so a scan evaluating a row-at-a-time measure reuses one scratch row.
func (t *Table) RowInto(dst []Value, id int) []Value {
	return t.rowInto(t.cur.Load(), dst, id)
}

func (t *Table) rowInto(s *snapshot, dst []Value, id int) []Value {
	n := len(t.schema.Columns)
	if cap(dst) < n {
		dst = make([]Value, n)
	}
	dst = dst[:n]
	for ci := range dst {
		dst[ci] = t.cell(s, id, ci)
	}
	return dst
}

// mustColumn resolves a column name, panicking when it does not exist.
func (t *Table) mustColumn(col string) int {
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
	return ci
}

// Value returns the value at (row id, column name). It panics if the
// column does not exist.
func (t *Table) Value(id int, col string) Value {
	return t.cell(t.cur.Load(), id, t.mustColumn(col))
}

// indexLookup resolves rows whose col equals any of vals through the
// hash index, building or tail-extending it first so it covers at least
// the rows published when the call started. Keys are the boxed cell
// values, so matching is kind-exact: an Int never matches a Float
// column and vice versa. The map is only touched under the lock —
// extension mutates bucket headers in place — but the returned buckets
// are safe to use after release: an extension only ever writes past
// their published len.
func (t *Table) indexLookup(col string, vals []Value) [][]int {
	if t.backing != nil {
		panic(fmt.Sprintf("relation: %s is backed; lookups are segment scans, not hash indexes", t.Name()))
	}
	ci := t.mustColumn(col)
	s := t.cur.Load()
	t.idxMu.RLock()
	idx := t.indexes[col]
	if idx == nil || idx.n < s.n {
		t.idxMu.RUnlock()
		t.idxMu.Lock()
		if idx = t.indexes[col]; idx == nil {
			idx = &colIndex{buckets: make(map[Value][]int)}
			t.indexes[col] = idx
		}
		for ; idx.n < s.n; idx.n++ {
			v := t.cell(s, idx.n, ci)
			idx.buckets[v] = append(idx.buckets[v], idx.n)
		}
		t.idxMu.Unlock()
		t.idxMu.RLock()
	}
	out := make([][]int, len(vals))
	for i, v := range vals {
		out[i] = idx.buckets[v]
	}
	t.idxMu.RUnlock()
	return out
}

// Freeze pre-builds the hash indexes on the primary key and every
// foreign-key column of a dimension-sized resident table (see
// hashIndexMaxRows), so the common lookups never take the build path.
// Larger tables are left unindexed; a Lookup into one still works and
// builds its index on first use.
func (t *Table) Freeze() {
	if t.backing != nil || t.Len() > hashIndexMaxRows {
		return
	}
	if t.schema.Key != "" {
		t.indexLookup(t.schema.Key, nil)
	}
	for _, fk := range t.schema.ForeignKeys {
		t.indexLookup(fk.Column, nil)
	}
}

// IndexedColumns returns the names of the columns that currently carry
// a hash index, sorted.
func (t *Table) IndexedColumns() []string {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]string, 0, len(t.indexes))
	for col := range t.indexes {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// ResidentBytes returns the bytes a resident table's columns occupy,
// computed from their lengths (dictionary entries at the size of a
// Value plus their string bytes); 0 for a backed table. Derived
// structures — hash indexes, zones — are not counted.
func (t *Table) ResidentBytes() int64 {
	s := t.cur.Load()
	if s == nil {
		return 0
	}
	valueSize := int64(unsafe.Sizeof(Value{}))
	var b int64
	for _, c := range s.cols {
		b += int64(len(c.floats))*8 + int64(len(c.codes))*4 + int64(len(c.dict))*valueSize
		for _, v := range c.dict {
			if v.Kind() == KindString {
				b += int64(len(v.Str()))
			}
		}
	}
	return b
}

// FloatColumn returns the dense float64 form of col: one entry per row,
// NaN where the cell is NULL. For a numeric column this is the column's
// storage, shared and never to be modified; any other column yields
// all-NaN (callers probe attribute columns whose kind they do not know).
func (t *Table) FloatColumn(col string) []float64 {
	ci := t.mustColumn(col)
	if t.backing != nil {
		// Materializing a whole backed column would defeat the paging
		// budget; every caller on the backed path must go through
		// FloatReader. Panicking here turns a missed call site into a
		// loud test failure instead of a silent RSS blowup.
		panic(fmt.Sprintf("relation: %s is backed; use FloatReader(%q) instead of FloatColumn", t.Name(), col))
	}
	s := t.cur.Load()
	if numeric(t.schema.Columns[ci].Kind) {
		return s.cols[ci].floats
	}
	nan := make([]float64, s.n)
	for i := range nan {
		nan[i] = math.NaN()
	}
	return nan
}

// DictColumn returns the dictionary-encoded form of col: codes[row]
// indexes dict (distinct non-NULL values in first-seen order), or is -1
// where the value is NULL. For a non-numeric column this is the
// column's storage; a numeric column's dictionary view is derived on
// first use and extended past appended rows. The returned slices are
// shared and must not be modified.
func (t *Table) DictColumn(col string) (codes []int32, dict []Value) {
	ci := t.mustColumn(col)
	if t.backing != nil {
		panic(fmt.Sprintf("relation: %s is backed; use DictReader(%q) instead of DictColumn", t.Name(), col))
	}
	s := t.cur.Load()
	kind := t.schema.Columns[ci].Kind
	if !numeric(kind) {
		return s.cols[ci].codes, s.cols[ci].dict
	}
	t.colMu.RLock()
	nd := t.numDicts[ci]
	if nd != nil && len(nd.codes) >= s.n {
		codes, dict = nd.codes, nd.dict
		t.colMu.RUnlock()
		return codes, dict
	}
	t.colMu.RUnlock()
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if nd = t.numDicts[ci]; nd == nil {
		nd = &numDict{code: make(map[float64]int32)}
		if t.numDicts == nil {
			t.numDicts = make(map[int]*numDict)
		}
		t.numDicts[ci] = nd
	}
	// In-place growth is safe: new entries land beyond the len of every
	// slice header already handed out.
	for _, f := range s.cols[ci].floats[min(len(nd.codes), s.n):] {
		code := int32(-1)
		if !math.IsNaN(f) {
			var ok bool
			if code, ok = nd.code[f]; !ok {
				code = int32(len(nd.dict))
				nd.code[f] = code
				nd.dict = append(nd.dict, numericValue(kind, f))
			}
		}
		nd.codes = append(nd.codes, code)
	}
	return nd.codes, nd.dict
}

// Lookup returns the IDs of rows whose col equals v, using (and caching) a
// hash index. On a backed table it is a Bloom/zone-pruned segment scan.
// The returned slice is shared and must not be modified.
func (t *Table) Lookup(col string, v Value) []int {
	if t.backing != nil {
		return t.lookupScan(col, []Value{v}, nil)
	}
	return t.indexLookup(col, []Value{v})[0]
}

// LookupIn returns the IDs of rows whose col equals any of vals, in
// ascending row order without duplicates.
func (t *Table) LookupIn(col string, vals []Value) []int {
	return t.LookupInSegments(col, vals, nil)
}

// LookupInSegments is LookupIn restricted, on a backed table, to the
// given segments (ascending, deduplicated segment indices; nil for all)
// — the hook for posting-level skip lists, where an upstream index
// already knows which segments can contain a value. A backed table
// resolves the whole value set in one segment scan, skipping segments
// that the column's Bloom filters or zone maps prove cannot contain any
// of the values; a resident table answers from its hash index and
// ignores segs.
func (t *Table) LookupInSegments(col string, vals []Value, segs []int32) []int {
	if t.backing != nil {
		return t.lookupScan(col, vals, segs)
	}
	var out []int
	for _, bucket := range t.indexLookup(col, vals) {
		out = append(out, bucket...)
	}
	sort.Ints(out)
	return dedupSorted(out)
}

// FloatReader returns the segmented float view of a numeric column:
// the backing's pageable reader for a backed table, a zero-copy wrapper
// over the column otherwise.
func (t *Table) FloatReader(col string) FloatReader {
	if t.backing != nil {
		rd := t.backing.FloatReader(col)
		if rd == nil {
			panic(fmt.Sprintf("relation: %s: no float backing for column %q", t.Name(), col))
		}
		return rd
	}
	return ResidentFloats(t.FloatColumn(col))
}

// DictReader returns the segmented dictionary view of a column.
func (t *Table) DictReader(col string) DictReader {
	if t.backing != nil {
		rd := t.backing.DictReader(col)
		if rd == nil {
			panic(fmt.Sprintf("relation: %s: no dict backing for column %q", t.Name(), col))
		}
		return rd
	}
	codes, dict := t.DictColumn(col)
	return ResidentCodes(codes, dict)
}

// dictCodeMap returns (building and caching on first use) the value→code
// map of a backed dict column, used to translate lookup values into
// codes. Values outside the dictionary match nothing. An append can grow
// a backed dictionary, so a cached map shorter than the current
// dictionary is rebuilt from the longer one.
func (t *Table) dictCodeMap(ci int, rd DictReader) map[Value]int32 {
	dict := rd.Dict()
	t.colMu.RLock()
	m := t.dictIdx[ci]
	t.colMu.RUnlock()
	if len(m) >= len(dict) {
		return m
	}
	m = make(map[Value]int32, len(dict))
	for c, v := range dict {
		m[v] = int32(c)
	}
	t.colMu.Lock()
	if prior, ok := t.dictIdx[ci]; ok && len(prior) >= len(m) {
		m = prior
	} else {
		t.dictIdx[ci] = m
	}
	t.colMu.Unlock()
	return m
}

// lookupScan resolves a value-set lookup against a backed column by
// scanning its segments in row order, consulting per-segment Bloom
// filters (and, for numeric columns, zone maps over the values' span)
// to skip segments that provably contain none of the wanted values.
// segs, when non-nil, restricts the scan to those segments. Matching is
// kind-exact, mirroring the resident hash index: an Int value never
// matches a Float column and vice versa.
func (t *Table) lookupScan(col string, vals []Value, segs []int32) []int {
	ci := t.mustColumn(col)
	c := t.schema.Columns[ci]
	ss := t.backing.SegmentSize()
	nseg := NumSegments(t.Len(), ss)
	iter := func(body func(si int)) {
		if segs != nil {
			for _, si := range segs {
				if int(si) < nseg {
					body(int(si))
				}
			}
			return
		}
		for si := 0; si < nseg; si++ {
			body(si)
		}
	}

	var out []int
	skippedBloom, skippedZone := 0, 0
	defer func() { t.backing.NoteSkips(skippedBloom, skippedZone) }()

	if numeric(c.Kind) {
		// Numeric column: wanted values become exact float targets.
		// Kind-mismatched values are dropped; NULL matches NaN cells.
		wantNull := false
		targets := make([]float64, 0, len(vals))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if v.IsNull() {
				wantNull = true
				continue
			}
			if v.Kind() != c.Kind {
				continue
			}
			f := v.AsFloat()
			targets = append(targets, f)
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if len(targets) == 0 && !wantNull {
			return nil
		}
		rd := t.backing.FloatReader(col)
		iter(func(si int) {
			if !wantNull {
				if ov, has := t.backing.SegmentZoneOverlaps(col, si, lo, hi); has && !ov {
					skippedZone++
					return
				}
				if ok, has := t.segMayContainAny(col, si, vals, c.Kind); has && !ok {
					skippedBloom++
					return
				}
			}
			seg := rd.FloatSegment(si)
			base := si * ss
			for i, f := range seg {
				if math.IsNaN(f) {
					if wantNull {
						out = append(out, base+i)
					}
					continue
				}
				for _, tg := range targets {
					if f == tg {
						out = append(out, base+i)
						break
					}
				}
			}
		})
		return out
	}

	// Dictionary column: translate values to codes once, then scan codes.
	rd := t.backing.DictReader(col)
	codeOf := t.dictCodeMap(ci, rd)
	wantNull := false
	want := make(map[int32]struct{}, len(vals))
	for _, v := range vals {
		if v.IsNull() {
			wantNull = true
			continue
		}
		if code, ok := codeOf[v]; ok {
			want[code] = struct{}{}
		}
	}
	if len(want) == 0 && !wantNull {
		return nil
	}
	iter(func(si int) {
		if !wantNull {
			if ok, has := t.segMayContainAny(col, si, vals, c.Kind); has && !ok {
				skippedBloom++
				return
			}
		}
		seg := rd.CodeSegment(si)
		base := si * ss
		for i, code := range seg {
			if code < 0 {
				if wantNull {
					out = append(out, base+i)
				}
				continue
			}
			if _, hit := want[code]; hit {
				out = append(out, base+i)
			}
		}
	})
	return out
}

// segMayContainAny folds Bloom evidence over a value set: the segment
// may be skipped only when the filter proves every wanted value absent.
// Kind-mismatched and out-of-dictionary values are still probed — the
// Bloom filter is keyed on canonical value encodings, so they simply
// miss.
func (t *Table) segMayContainAny(col string, si int, vals []Value, kind Kind) (maybe, has bool) {
	has = false
	for _, v := range vals {
		if v.IsNull() || (numeric(kind) && v.Kind() != kind) {
			continue
		}
		m, ok := t.backing.SegmentMayContain(col, si, v)
		if !ok {
			return true, false
		}
		has = true
		if m {
			return true, true
		}
	}
	return false, has
}

// Scan calls fn for every row ID in insertion order, stopping early if fn
// returns false. Each row is materialised from the columns into one
// scratch slice that is only valid during the call — fn must copy what
// it keeps. Use the column readers directly for anything hot.
func (t *Table) Scan(fn func(id int, row []Value) bool) {
	s := t.cur.Load()
	n := t.Len()
	if s != nil {
		n = s.n
	}
	var row []Value
	for id := 0; id < n; id++ {
		row = t.rowInto(s, row, id)
		if !fn(id, row) {
			return
		}
	}
}

// Filter returns the IDs of rows satisfying pred, in insertion order.
// pred sees a scratch row, as Scan's callback does.
func (t *Table) Filter(pred func(row []Value) bool) []int {
	var out []int
	t.Scan(func(id int, row []Value) bool {
		if pred(row) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// DistinctValues returns the distinct non-NULL values of col in first-seen
// order.
func (t *Table) DistinctValues(col string) []Value {
	ci := t.mustColumn(col)
	c := t.schema.Columns[ci]
	if !numeric(c.Kind) {
		// A dict column's dictionary is exactly its distinct non-NULL
		// values in first-seen order.
		return append([]Value(nil), t.DictReader(col).Dict()...)
	}
	rd := t.FloatReader(col)
	seen := make(map[float64]struct{})
	var out []Value
	for si, nseg := 0, NumSegments(rd.Len(), rd.SegmentSize()); si < nseg; si++ {
		for _, f := range rd.FloatSegment(si) {
			if _, ok := seen[f]; ok || math.IsNaN(f) {
				continue
			}
			seen[f] = struct{}{}
			out = append(out, numericValue(c.Kind, f))
		}
	}
	return out
}

// dedupSorted removes duplicates from a sorted int slice in place.
func dedupSorted(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}
