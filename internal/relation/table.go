package relation

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Table is an append-only relation. Rows are identified by dense integer
// row IDs (their insertion position), which the rest of the system uses
// as compact fact/dimension handles.
//
// Hash indexes are built lazily per column on first lookup and maintained
// on subsequent appends. Concurrent reads are always safe, and appends
// through Append/AppendFacts are safe concurrently with readers: the row
// snapshot is published through an atomic pointer, so a reader sees the
// row count current when its access started (a consistent prefix) and
// never a torn row. The lazy index and column-view builds are guarded by
// locks and track how many rows they cover, extending their tails on
// demand (Freeze additionally pre-builds the key indexes and numeric
// views so the common lookups never take the build path at all).
// Appends themselves are serialized by a writer mutex.
type Table struct {
	schema *Schema
	// rows is the build-time row storage, read only when pub has never
	// been published. The first AppendFacts snapshots it into pub and
	// the field is never written again, so readers racing the first
	// publish still see a stable header.
	rows [][]Value
	// pub is the published row snapshot: a header whose len is the row
	// count visible to readers. Appends write new rows into spare
	// capacity beyond the published len, then publish a longer header —
	// readers never index past the len they loaded.
	pub atomic.Pointer[[][]Value]
	// appendMu serializes writers.
	appendMu sync.Mutex

	idxMu   sync.RWMutex
	indexes map[string]*colIndex

	// Columnar views, built on demand (numeric ones also at Freeze) and
	// extended in place on append. Unlike the hash indexes these are
	// guarded by their own lock, so a cold column may be materialized
	// safely mid-read by the executor's concurrent kernels.
	colMu     sync.RWMutex
	floatCols map[int][]float64
	dictCols  map[int]*dictColumn
	// zoneCols holds a resident table's per-segment zone maps, derived
	// per numeric column from the float view on first use and widened
	// past appended rows on read, like every other derived view.
	zoneCols map[int]colZones

	// backing, when non-nil, makes this a backed table: rows is empty
	// and every access goes through the segmented column readers (see
	// segment.go). Backed tables carry no hash indexes (lookups are
	// Bloom/zone-pruned segment scans), never materialize whole dense
	// columns, and accept appends only when the backing implements
	// AppendableBacking.
	backing ColumnBacking
	// dictIdx caches, per backed dict column, the value→code map used
	// to translate lookup values into codes. Guarded by colMu.
	dictIdx map[int]map[Value]int32
}

// colIndex is one column's hash index together with the number of rows
// it covers, so an index built from an older snapshot is extended — not
// rebuilt — the next time it is consulted. Keeping the coverage count on
// the struct (rather than in a parallel map) keeps the hot lookup path
// at a single map access.
type colIndex struct {
	buckets map[Value][]int
	n       int // rows covered
}

// dictColumn is a dictionary-encoded column view: codes[row] indexes
// dict, or is -1 where the stored value is NULL. The dictionary holds
// distinct values in first-seen row order; code is the reverse map kept
// so appends can extend codes without rescanning.
type dictColumn struct {
	codes []int32
	dict  []Value
	code  map[Value]int32
}

// colZones is one column's per-segment zones plus the rows they cover.
type colZones struct {
	zones []Zone
	upTo  int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	return &Table{
		schema:  schema,
		indexes: make(map[string]*colIndex),
	}
}

// NewBackedTable creates an immutable table whose column storage lives
// behind the given backing (typically persist's segment store). The
// backing must provide a reader for every schema column: FloatReader
// for numeric columns, DictReader otherwise.
func NewBackedTable(schema *Schema, backing ColumnBacking) (*Table, error) {
	for _, c := range schema.Columns {
		if c.Kind == KindInt || c.Kind == KindFloat {
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
// zones derived lazily off the column's float view, covering at least
// the rows published when the call started.
func (t *Table) SegmentZoneOverlaps(col string, si int, lo, hi float64) (overlaps, hasZone bool) {
	if t.backing != nil {
		return t.backing.SegmentZoneOverlaps(col, si, lo, hi)
	}
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		return true, false
	}
	if k := t.schema.Columns[ci].Kind; k != KindInt && k != KindFloat {
		return true, false
	}
	n := len(t.view())
	t.colMu.RLock()
	z := t.zoneCols[ci]
	t.colMu.RUnlock()
	if z.upTo < n {
		vals := t.FloatColumn(col)
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

// view returns the published row snapshot. Its length is the row count
// visible to the caller; later appends only ever publish longer
// snapshots, so everything below the loaded length is immutable.
func (t *Table) view() [][]Value {
	if p := t.pub.Load(); p != nil {
		return *p
	}
	return t.rows
}

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.backing != nil {
		return t.backing.NumRows()
	}
	return len(t.view())
}

// Append validates the row against the schema and appends it, returning
// the new row ID. Int values are widened into float columns.
func (t *Table) Append(row []Value) (int, error) {
	return t.AppendFacts([][]Value{row})
}

// AppendFacts validates and appends a batch of rows, returning the row
// ID of the first appended row. It is the streaming-ingest entry point:
// safe to call concurrently with readers, which keep seeing a consistent
// prefix of the table while the hash indexes and columnar views are
// extended in place — never rebuilt. On a backed table the rows are
// handed to the backing, which must implement AppendableBacking.
func (t *Table) AppendFacts(rows [][]Value) (int, error) {
	// One flat backing array for the whole batch: at streaming rates the
	// per-row slice headers are pure GC pressure, and row-major layout
	// keeps the batch contiguous for the extension loops below.
	ncols := len(t.schema.Columns)
	flat := make([]Value, len(rows)*ncols)
	stored := make([][]Value, len(rows))
	for ri, row := range rows {
		if len(row) != ncols {
			return 0, fmt.Errorf("relation: %s: row arity %d, want %d", t.Name(), len(row), ncols)
		}
		srow := flat[ri*ncols : (ri+1)*ncols : (ri+1)*ncols]
		for i, v := range row {
			c := t.schema.Columns[i]
			switch {
			case v.IsNull():
				srow[i] = v
			case v.Kind() == c.Kind:
				srow[i] = v
			case c.Kind == KindFloat && v.Kind() == KindInt:
				srow[i] = Float(float64(v.IntVal()))
			default:
				return 0, fmt.Errorf("relation: %s.%s: cannot store %s value %#v in %s column",
					t.Name(), c.Name, v.Kind(), v, c.Kind)
			}
		}
		stored[ri] = srow
	}

	t.appendMu.Lock()
	defer t.appendMu.Unlock()

	if t.backing != nil {
		ab, ok := t.backing.(AppendableBacking)
		if !ok {
			return 0, fmt.Errorf("relation: %s: backing does not support appends", t.Name())
		}
		start := t.backing.NumRows()
		if err := ab.AppendRows(stored); err != nil {
			return 0, err
		}
		return start, nil
	}

	base := t.view()
	start := len(base)
	grown := append(base, stored...)
	// Publish the longer snapshot. When append grew in place the new
	// elements landed beyond every older snapshot's len, so concurrent
	// readers are unaffected; when it reallocated, older snapshots keep
	// their own backing.
	t.pub.Store(&grown)

	// Hash indexes and columnar views are NOT extended here: every read
	// path (indexLookup, FloatColumn, DictColumn) checks its coverage
	// against the snapshot it holds and tail-extends under its own lock,
	// so eager maintenance would only move that amortized cost onto the
	// write path — measured at ~70% of the append, almost all of it
	// Value-keyed map inserts for the fact table's six hash indexes.
	return start, nil
}

// extendFloatColLocked brings the cached float view of column ci up to
// the given snapshot. Caller holds colMu. In-place growth is safe: new
// entries land beyond the len of every slice header already handed out.
func (t *Table) extendFloatColLocked(ci int, rows [][]Value) {
	c := t.floatCols[ci]
	for i := len(c); i < len(rows); i++ {
		c = append(c, rows[i][ci].FloatOrNaN())
	}
	t.floatCols[ci] = c
}

// extendDictColLocked brings the cached dictionary view of column ci up
// to the given snapshot, growing the dictionary for first-seen values.
// Caller holds colMu.
func (t *Table) extendDictColLocked(ci int, rows [][]Value) {
	dc := t.dictCols[ci]
	for i := len(dc.codes); i < len(rows); i++ {
		v := rows[i][ci]
		if v.IsNull() {
			dc.codes = append(dc.codes, -1)
			continue
		}
		c, ok := dc.code[v]
		if !ok {
			c = int32(len(dc.dict))
			dc.code[v] = c
			dc.dict = append(dc.dict, v)
		}
		dc.codes = append(dc.codes, c)
	}
}

// MustAppend is Append that panics on error; for statically known rows.
func (t *Table) MustAppend(row ...Value) int {
	id, err := t.Append(row)
	if err != nil {
		panic(err)
	}
	return id
}

// Row returns the stored row for id. The returned slice must not be
// modified. On a backed table the row is assembled from the column
// segments — correct but per-value; kernels should read columns through
// FloatReader/DictReader instead.
func (t *Table) Row(id int) []Value {
	if t.backing != nil {
		row := make([]Value, len(t.schema.Columns))
		for ci, c := range t.schema.Columns {
			row[ci] = t.backedValue(id, ci, c)
		}
		return row
	}
	return t.view()[id]
}

// backedValue reads one cell of a backed table through its column reader.
func (t *Table) backedValue(id, ci int, c Column) Value {
	ss := t.backing.SegmentSize()
	si, off := id/ss, id%ss
	if c.Kind == KindInt || c.Kind == KindFloat {
		f := t.backing.FloatReader(c.Name).FloatSegment(si)[off]
		if math.IsNaN(f) {
			return Null()
		}
		if c.Kind == KindInt {
			return Int(int64(f))
		}
		return Float(f)
	}
	rd := t.backing.DictReader(c.Name)
	code := rd.CodeSegment(si)[off]
	if code < 0 {
		return Null()
	}
	return rd.Dict()[code]
}

// Value returns the value at (row id, column name). It panics if the
// column does not exist.
func (t *Table) Value(id int, col string) Value {
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
	if t.backing != nil {
		return t.backedValue(id, ci, t.schema.Columns[ci])
	}
	return t.view()[id][ci]
}

// indexLookup resolves rows whose col equals any of vals through the
// hash index, building or tail-extending the index as needed so it
// covers at least the caller's row snapshot. The whole map access stays
// under the lock — appends mutate bucket headers in place — but the
// returned bucket slices are safe to use after release: an append only
// ever writes past their published len.
func (t *Table) indexLookup(col string, vals []Value) [][]int {
	rows := t.view()
	t.idxMu.RLock()
	idx := t.indexes[col]
	if idx == nil || idx.n < len(rows) {
		t.idxMu.RUnlock()
		t.extendIndex(col, rows)
		t.idxMu.RLock()
		idx = t.indexes[col]
	}
	out := make([][]int, len(vals))
	for i, v := range vals {
		out[i] = idx.buckets[v]
	}
	t.idxMu.RUnlock()
	return out
}

// extendIndex builds or tail-extends col's hash index so it covers at
// least the given row snapshot.
func (t *Table) extendIndex(col string, rows [][]Value) {
	if t.backing != nil {
		panic(fmt.Sprintf("relation: %s is backed; lookups are segment scans, not hash indexes", t.Name()))
	}
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
	t.idxMu.Lock()
	idx := t.indexes[col]
	if idx == nil {
		idx = &colIndex{buckets: make(map[Value][]int)}
		t.indexes[col] = idx
	}
	for id := idx.n; id < len(rows); id++ {
		v := rows[id][ci]
		idx.buckets[v] = append(idx.buckets[v], id)
	}
	if idx.n < len(rows) {
		idx.n = len(rows)
	}
	t.idxMu.Unlock()
}

// index pre-builds the hash index for col (Freeze's hook).
func (t *Table) index(col string) {
	t.indexLookup(col, nil)
}

// Freeze pre-builds hash indexes on the primary key and every foreign-key
// column so that subsequent concurrent lookups never mutate the table,
// and materializes the float view of every numeric column for the
// columnar kernels. Dictionary views stay lazy (their own lock makes a
// cold build safe mid-read) since most string columns are never grouped
// by.
func (t *Table) Freeze() {
	if t.backing != nil {
		// Backed tables carry no hash indexes and never materialize
		// dense views; there is nothing to pre-build.
		return
	}
	if t.schema.Key != "" {
		t.index(t.schema.Key)
	}
	for _, fk := range t.schema.ForeignKeys {
		t.index(fk.Column)
	}
	for _, c := range t.schema.Columns {
		if c.Kind == KindInt || c.Kind == KindFloat {
			t.FloatColumn(c.Name)
		}
	}
}

// FloatColumn returns the dense float64 view of col: one entry per row,
// with NULL (and any non-numeric value) represented as NaN. The view is
// built once and cached; the returned slice is shared and must not be
// modified.
func (t *Table) FloatColumn(col string) []float64 {
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
	if t.backing != nil {
		// Materializing a whole backed column would defeat the paging
		// budget; every caller on the backed path must go through
		// FloatReader. Panicking here turns a missed call site into a
		// loud test failure instead of a silent RSS blowup.
		panic(fmt.Sprintf("relation: %s is backed; use FloatReader(%q) instead of FloatColumn", t.Name(), col))
	}
	rows := t.view()
	t.colMu.RLock()
	c := t.floatCols[ci]
	t.colMu.RUnlock()
	if len(c) >= len(rows) {
		return c
	}
	t.colMu.Lock()
	if t.floatCols == nil {
		t.floatCols = make(map[int][]float64)
	}
	if _, ok := t.floatCols[ci]; !ok {
		t.floatCols[ci] = make([]float64, 0, len(rows))
	}
	t.extendFloatColLocked(ci, rows)
	c = t.floatCols[ci]
	t.colMu.Unlock()
	return c
}

// DictColumn returns the dictionary-encoded view of col: codes[row]
// indexes dict (distinct non-NULL values in first-seen order), or is -1
// where the value is NULL. The view is built once and cached; the
// returned slices are shared and must not be modified.
func (t *Table) DictColumn(col string) (codes []int32, dict []Value) {
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
	if t.backing != nil {
		panic(fmt.Sprintf("relation: %s is backed; use DictReader(%q) instead of DictColumn", t.Name(), col))
	}
	rows := t.view()
	t.colMu.RLock()
	dc := t.dictCols[ci]
	if dc != nil && len(dc.codes) >= len(rows) {
		codes, dict = dc.codes, dc.dict
		t.colMu.RUnlock()
		return codes, dict
	}
	t.colMu.RUnlock()
	t.colMu.Lock()
	if t.dictCols == nil {
		t.dictCols = make(map[int]*dictColumn)
	}
	if _, ok := t.dictCols[ci]; !ok {
		t.dictCols[ci] = &dictColumn{
			codes: make([]int32, 0, len(rows)),
			code:  make(map[Value]int32),
		}
	}
	t.extendDictColLocked(ci, rows)
	dc = t.dictCols[ci]
	codes, dict = dc.codes, dc.dict
	t.colMu.Unlock()
	return codes, dict
}

// Lookup returns the IDs of rows whose col equals v, using (and caching) a
// hash index. On a backed table it is a Bloom/zone-pruned segment scan.
// The returned slice is shared and must not be modified.
func (t *Table) Lookup(col string, v Value) []int {
	if t.backing != nil {
		return t.lookupScan(col, []Value{v}, nil)
	}
	// Open-coded single-value fast path: joins call Lookup once per fact
	// row, so the [][]int the batched form allocates would be real GC
	// pressure here. The bucket is safe to use after the lock is
	// released — an append only ever writes past its published len.
	rows := t.view()
	t.idxMu.RLock()
	if idx := t.indexes[col]; idx != nil && idx.n >= len(rows) {
		b := idx.buckets[v]
		t.idxMu.RUnlock()
		return b
	}
	t.idxMu.RUnlock()
	return t.indexLookup(col, []Value{v})[0]
}

// LookupIn returns the IDs of rows whose col equals any of vals, in
// ascending row order without duplicates. On a backed table the whole
// value set is resolved in one segment scan, skipping segments that the
// column's Bloom filters or zone maps prove cannot contain any of the
// values.
func (t *Table) LookupIn(col string, vals []Value) []int {
	if t.backing != nil {
		return t.lookupScan(col, vals, nil)
	}
	var out []int
	for _, bucket := range t.indexLookup(col, vals) {
		out = append(out, bucket...)
	}
	sort.Ints(out)
	return dedupSorted(out)
}

// LookupInSegments is LookupIn restricted to the given segments of a
// backed table (ascending, deduplicated segment indices) — the hook for
// posting-level skip lists, where an upstream index already knows which
// segments can contain a value. On a resident table segs is ignored.
func (t *Table) LookupInSegments(col string, vals []Value, segs []int32) []int {
	if t.backing != nil {
		return t.lookupScan(col, vals, segs)
	}
	return t.LookupIn(col, vals)
}

// FloatReader returns the segmented float view of a numeric column:
// the backing's pageable reader for a backed table, a zero-copy wrapper
// over the cached dense view otherwise.
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

// ResidentFloatColumn returns the dense float view of col, or nil when
// the table is backed — the measure constructors use it so vectorized
// fast paths engage only when the column is truly resident.
func (t *Table) ResidentFloatColumn(col string) []float64 {
	if t.backing != nil {
		return nil
	}
	return t.FloatColumn(col)
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
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
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

	if c.Kind == KindInt || c.Kind == KindFloat {
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
		if v.IsNull() || ((kind == KindInt || kind == KindFloat) && v.Kind() != kind) {
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
// returns false. On a backed table each row is assembled from its column
// segments — use the readers directly for anything hot.
func (t *Table) Scan(fn func(id int, row []Value) bool) {
	if t.backing != nil {
		n := t.Len()
		for id := 0; id < n; id++ {
			if !fn(id, t.Row(id)) {
				return
			}
		}
		return
	}
	for id, row := range t.view() {
		if !fn(id, row) {
			return
		}
	}
}

// Filter returns the IDs of rows satisfying pred, in insertion order.
func (t *Table) Filter(pred func(row []Value) bool) []int {
	var out []int
	if t.backing != nil {
		n := t.Len()
		for id := 0; id < n; id++ {
			if pred(t.Row(id)) {
				out = append(out, id)
			}
		}
		return out
	}
	for id, row := range t.view() {
		if pred(row) {
			out = append(out, id)
		}
	}
	return out
}

// DistinctValues returns the distinct non-NULL values of col in first-seen
// order.
func (t *Table) DistinctValues(col string) []Value {
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("relation: %s has no column %q", t.Name(), col))
	}
	if t.backing != nil {
		c := t.schema.Columns[ci]
		if c.Kind != KindInt && c.Kind != KindFloat {
			// A dict column's dictionary is exactly its distinct non-NULL
			// values in first-seen order.
			dict := t.backing.DictReader(c.Name).Dict()
			out := make([]Value, len(dict))
			copy(out, dict)
			return out
		}
		rd := t.backing.FloatReader(c.Name)
		seen := make(map[float64]struct{})
		var out []Value
		nseg := NumSegments(t.Len(), t.backing.SegmentSize())
		for si := 0; si < nseg; si++ {
			for _, f := range rd.FloatSegment(si) {
				if math.IsNaN(f) {
					continue
				}
				if _, ok := seen[f]; ok {
					continue
				}
				seen[f] = struct{}{}
				if c.Kind == KindInt {
					out = append(out, Int(int64(f)))
				} else {
					out = append(out, Float(f))
				}
			}
		}
		return out
	}
	seen := make(map[Value]struct{})
	var out []Value
	for _, row := range t.view() {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
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
