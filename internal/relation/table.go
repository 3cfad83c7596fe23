package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Table is an append-only relation. Rows are identified by dense integer
// row IDs (their insertion position), which the rest of the system uses
// as compact fact/dimension handles.
//
// A table is a column store, and there is one kind of it. Per column it
// holds a tail covering rows [Base, N) — a []float64 for an Int or Float
// column (NaN marks NULL), a []int32 code vector for any other kind —
// one first-seen dictionary with one value→code map, and per-segment
// skip evidence. A store without a pager never seals, so Base stays 0
// and the tail is the whole dense column. A paged store hands each full
// segment to its Pager and starts a fresh tail, so it holds one segment
// in memory however long it grows. There is no boxed row store: Row,
// Scan and Filter materialise []Value rows from the columns for exports,
// integrity checks and test oracles.
//
// An append writes past the published length of the tails (or replaces
// a slice, never rewriting a published element) and publishes one
// immutable StoreState through an atomic pointer, so a reader sees every
// column at the length current when its access started — a consistent
// prefix, never a torn row — and appends are safe concurrently with
// readers. Appends themselves are serialized by a writer mutex.
type Table struct {
	schema  *Schema
	segSize int
	// pager, when non-nil, makes this a paged store (see Pager).
	pager Pager
	cur   atomic.Pointer[StoreState]

	// appendMu serializes writers; openHash is theirs alone.
	appendMu sync.Mutex
	// openHash holds, per column that keeps Bloom filters (nil entries
	// elsewhere), the value hashes of the open segment.
	openHash []map[uint64]struct{}
	// codeOf is the value→code map of each dictionary column (nil
	// entries for numeric columns). The writer inserts under dictMu's
	// write lock; a paged lookup translates values under its read lock.
	dictMu sync.RWMutex
	codeOf []map[Value]int32

	idxMu   sync.RWMutex
	indexes map[string]*colIndex
}

// StoreState is one published state of a store: N rows, of which those
// below Base (a multiple of the segment size, 0 on a store that never
// pages) are sealed and held by the pager. It is also what a pager
// persists and preloads (NewPagedTable, Table.Persist).
type StoreState struct {
	N, Base int
	Cols    []StoreColumn
}

// StoreColumn is one column of a StoreState.
type StoreColumn struct {
	// Tail holds rows [Base, N).
	Tail Segment
	// Dict holds a non-numeric column's distinct non-NULL values in
	// first-seen order; codes index it.
	Dict []Value
	// Zones holds one zone per segment of a numeric column.
	Zones []Zone
	// Blooms holds one filter per segment of a foreign-key or full-text
	// column of a paged store.
	Blooms []Bloom
	// Terms holds, per dictionary code of a full-text column of a paged
	// store, the ascending segments holding the value.
	Terms [][]int32
}

// colIndex is one column's hash index together with the number of rows
// it covers, so an index built from an older state is extended — not
// rebuilt — the next time it is consulted.
type colIndex struct {
	buckets map[Value][]int
	n       int // rows covered
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

// NewTable creates an empty table that never pages.
func NewTable(schema *Schema) *Table {
	t, err := newStore(schema, DefaultSegmentSize, nil, StoreState{})
	if err != nil {
		panic(err) // an empty state is always valid
	}
	return t
}

// NewPagedTable opens a store that hands each full segment of segSize
// rows (a power of two of at least 64) to pager, preloaded with state:
// the zero StoreState for an empty store, or what the pager persisted
// (Persist), whose Base must be the last segment boundary at or below N.
func NewPagedTable(schema *Schema, segSize int, pager Pager, state StoreState) (*Table, error) {
	if !ValidSegmentSize(segSize) {
		return nil, fmt.Errorf("relation: %s: invalid segment size %d (want a power of two >= 64)", schema.Name, segSize)
	}
	return newStore(schema, segSize, pager, state)
}

// newStore builds a store over a preloaded state, validating it against
// the evidence families the store keeps. The families are chosen here,
// once: zones on every numeric column; Bloom filters on foreign-key and
// full-text columns and term lists on full-text dictionary columns of a
// paged store only, because they pay only where reading a segment costs
// I/O.
func newStore(schema *Schema, segSize int, pager Pager, st StoreState) (*Table, error) {
	ncols := len(schema.Columns)
	t := &Table{
		schema:   schema,
		segSize:  segSize,
		pager:    pager,
		openHash: make([]map[uint64]struct{}, ncols),
		codeOf:   make([]map[Value]int32, ncols),
		indexes:  make(map[string]*colIndex),
	}
	if st.Cols == nil {
		st.Cols = make([]StoreColumn, ncols)
	}
	open := st.N - st.Base
	if len(st.Cols) != ncols || st.Base%segSize != 0 || open < 0 || open >= segSize {
		return nil, fmt.Errorf("relation: %s: preloaded state of %d columns, rows [%d, %d), does not fit %d columns at segment size %d",
			schema.Name, len(st.Cols), st.Base, st.N, ncols, segSize)
	}
	nseg := NumSegments(st.N, segSize)
	paged := pager != nil
	for ci, col := range schema.Columns {
		c := &st.Cols[ci]
		bloom := paged && (col.FullText || slices.ContainsFunc(schema.ForeignKeys, func(fk ForeignKey) bool { return fk.Column == col.Name }))
		tail, zones, blooms, terms := len(c.Tail.Codes), 0, 0, 0
		if numeric(col.Kind) {
			tail, zones = len(c.Tail.Floats), nseg
		}
		if bloom {
			t.openHash[ci] = make(map[uint64]struct{})
			blooms = nseg
			if col.FullText && !numeric(col.Kind) {
				terms = len(c.Dict)
			}
		}
		if tail != open || len(c.Zones) != zones || len(c.Blooms) != blooms || len(c.Terms) != terms {
			return nil, fmt.Errorf("relation: %s.%s: preloaded column does not match the store's evidence families", schema.Name, col.Name)
		}
		if numeric(col.Kind) {
			for _, f := range c.Tail.Floats {
				if bloom && !math.IsNaN(f) {
					t.openHash[ci][hashValue(numericValue(col.Kind, f))] = struct{}{}
				}
			}
			continue
		}
		t.codeOf[ci] = make(map[Value]int32, len(c.Dict))
		for code, v := range c.Dict {
			t.codeOf[ci][v] = int32(code)
		}
		for _, code := range c.Tail.Codes {
			if code < -1 || int(code) >= len(c.Dict) {
				return nil, fmt.Errorf("relation: %s.%s: code %d outside a dictionary of %d", schema.Name, col.Name, code, len(c.Dict))
			}
			if bloom && code >= 0 {
				t.openHash[ci][hashValue(c.Dict[code])] = struct{}{}
			}
		}
	}
	t.cur.Store(&st)
	return t, nil
}

// Pager returns the table's pager, or nil for a table that never pages.
// Callers use it to reach the paging counters and the cache budget.
func (t *Table) Pager() Pager { return t.pager }

// SegmentSize returns the row count of the table's physical unit: the
// unit of its skip evidence, and of paging on a paged store.
func (t *Table) SegmentSize() int { return t.segSize }

// SegmentZoneOverlaps reports zone-map evidence: whether a value in
// segment si of col can fall in the closed interval [lo, hi]. hasZone
// false (non-numeric or unknown column, segment past the rows) means no
// evidence — the segment must be scanned.
func (t *Table) SegmentZoneOverlaps(col string, si int, lo, hi float64) (overlaps, hasZone bool) {
	ci := t.schema.ColumnIndex(col)
	if ci < 0 {
		return true, false
	}
	zones := t.cur.Load().Cols[ci].Zones
	if si < 0 || si >= len(zones) {
		return true, false
	}
	return zones[si].Overlaps(lo, hi), true
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of rows.
func (t *Table) Len() int { return t.cur.Load().N }

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
// scattered into the column tails and segment evidence on the writer's
// side and published as one state. On a paged store an error sealing a
// full segment stops the batch there, with the rows before it appended.
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
	s := t.cur.Load()
	w := &StoreState{N: s.N, Base: s.Base, Cols: slices.Clone(s.Cols)}
	for ci := range w.Cols {
		// A value's list gains the open segment in place, so the lists a
		// reader holds are copied before any is touched.
		if c := &w.Cols[ci]; c.Terms != nil {
			c.Terms = slices.Clone(c.Terms)
		}
	}
	for lo := 0; lo < len(rows); {
		if t.pager != nil && w.N-w.Base == t.segSize {
			if err := t.seal(w); err != nil {
				t.cur.Store(w)
				return s.N, fmt.Errorf("relation: %s: sealing segment %d: %w", t.Name(), w.Base/t.segSize, err)
			}
		}
		take := min(t.segSize-w.N%t.segSize, len(rows)-lo)
		t.scatter(w, rows[lo:lo+take])
		w.N += take
		lo += take
	}
	t.cur.Store(w)
	return s.N, nil
}

// scatter appends rows, which all fall in segment si = w.N/segSize, to
// w's tails and folds them into that segment's evidence.
func (t *Table) scatter(w *StoreState, rows [][]Value) {
	si, fresh := w.N/t.segSize, w.N%t.segSize == 0
	for ci, col := range t.schema.Columns {
		c, hashes := &w.Cols[ci], t.openHash[ci]
		if fresh && hashes != nil {
			clear(hashes)
		}
		if !numeric(col.Kind) {
			t.encode(ci, c, rows, si, hashes)
		} else {
			from := len(c.Tail.Floats)
			z := EmptyZone()
			if !fresh {
				z = c.Zones[si]
			}
			for _, row := range rows {
				f := row[ci].FloatOrNaN()
				c.Tail.Floats = append(c.Tail.Floats, f)
				z.Observe(f)
			}
			c.Zones = setSegment(c.Zones, si, z)
			if hashes != nil {
				for _, f := range c.Tail.Floats[from:] {
					if !math.IsNaN(f) {
						hashes[hashValue(numericValue(col.Kind, f))] = struct{}{}
					}
				}
			}
		}
		if hashes != nil {
			c.Blooms = setSegment(c.Blooms, si, newBloom(hashes))
		}
	}
}

// encode is scatter for dictionary column ci: it codes each value,
// growing the dictionary (and the term lists) with values first seen.
func (t *Table) encode(ci int, c *StoreColumn, rows [][]Value, si int, hashes map[uint64]struct{}) {
	codeOf, terms := t.codeOf[ci], hashes != nil && t.schema.Columns[ci].FullText
	locked := false
	for _, row := range rows {
		v, code := row[ci], int32(-1)
		if !v.IsNull() {
			var ok bool
			if code, ok = codeOf[v]; !ok {
				if !locked {
					t.dictMu.Lock()
					locked = true
				}
				code = int32(len(c.Dict))
				codeOf[v] = code
				c.Dict = append(c.Dict, v)
				if terms {
					c.Terms = append(c.Terms, nil)
				}
			}
			if terms {
				if segs := c.Terms[code]; len(segs) == 0 || segs[len(segs)-1] != int32(si) {
					c.Terms[code] = append(segs, int32(si))
				}
			}
			if hashes != nil {
				hashes[hashValue(v)] = struct{}{}
			}
		}
		c.Tail.Codes = append(c.Tail.Codes, code)
	}
	if locked {
		t.dictMu.Unlock()
	}
}

// setSegment returns evs with segment si's entry set to e: appended when
// si is new, otherwise in a copy, since a reader may hold entry si.
func setSegment[E any](evs []E, si int, e E) []E {
	if si == len(evs) {
		return append(evs, e)
	}
	evs = slices.Clone(evs)
	evs[si] = e
	return evs
}

// seal hands w's full tails to the pager as segment Base/segSize and
// starts fresh ones. Readers of earlier states keep the old tails, which
// are never written again.
func (t *Table) seal(w *StoreState) error {
	segs := make([]Segment, len(w.Cols))
	for ci := range w.Cols {
		segs[ci] = w.Cols[ci].Tail
	}
	if err := t.pager.Seal(w.Base/t.segSize, segs); err != nil {
		return err
	}
	for ci, col := range t.schema.Columns {
		if numeric(col.Kind) {
			w.Cols[ci].Tail.Floats = make([]float64, 0, t.segSize)
		} else {
			w.Cols[ci].Tail.Codes = make([]int32, 0, t.segSize)
		}
	}
	w.Base += t.segSize
	return nil
}

// Persist calls fn with the published state, holding appends off until
// fn returns, so a pager can write the state out whole. The state is
// shared and must not be modified.
func (t *Table) Persist(fn func(*StoreState) error) error {
	t.appendMu.Lock()
	defer t.appendMu.Unlock()
	return fn(t.cur.Load())
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

// colReader reads one column of one published state, segment by
// segment: the open tail from memory, sealed segments from the pager.
// It is both the FloatReader of a numeric column and the DictReader of
// any other.
type colReader struct {
	t  *Table
	s  *StoreState
	ci int
}

func (r colReader) Len() int         { return r.s.N }
func (r colReader) SegmentSize() int { return r.t.segSize }
func (r colReader) Dict() []Value    { return r.s.Cols[r.ci].Dict }

// tailSpan returns segment si's span of the tail, ok false when the
// segment is sealed.
func (r colReader) tailSpan(si int) (lo, hi int, ok bool) {
	first := si * r.t.segSize
	return first - r.s.Base, min(first+r.t.segSize, r.s.N) - r.s.Base, first >= r.s.Base
}

// FloatSegment returns segment si of a numeric column; an open segment
// is the tail itself, capped at its published length.
func (r colReader) FloatSegment(si int) []float64 {
	if lo, hi, ok := r.tailSpan(si); ok {
		return r.s.Cols[r.ci].Tail.Floats[lo:hi:hi]
	}
	return r.t.pager.ReadSegment(r.ci, si).Floats
}

// CodeSegment is FloatSegment for a dictionary column.
func (r colReader) CodeSegment(si int) []int32 {
	if lo, hi, ok := r.tailSpan(si); ok {
		return r.s.Cols[r.ci].Tail.Codes[lo:hi:hi]
	}
	return r.t.pager.ReadSegment(r.ci, si).Codes
}

// cell boxes one cell of state s (one state per row keeps the row
// consistent).
func (t *Table) cell(s *StoreState, id, ci int) Value {
	r, kind := colReader{t, s, ci}, t.schema.Columns[ci].Kind
	si, off := id/t.segSize, id%t.segSize
	if numeric(kind) {
		return numericValue(kind, r.FloatSegment(si)[off])
	}
	if code := r.CodeSegment(si)[off]; code >= 0 {
		return s.Cols[ci].Dict[code]
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

func (t *Table) rowInto(s *StoreState, dst []Value, id int) []Value {
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

// Freeze pre-builds the hash indexes on the primary key and every
// foreign-key column of a dimension-sized table (see hashIndexMaxRows),
// so the common lookups never take the build path. Larger tables are
// left unindexed; a Lookup into one still works and builds its index on
// first use. A paged store keeps no hash index (see LookupIn), so there
// this does nothing.
func (t *Table) Freeze() {
	if t.Len() > hashIndexMaxRows {
		return
	}
	if t.schema.Key != "" {
		t.LookupIn(t.schema.Key, nil)
	}
	for _, fk := range t.schema.ForeignKeys {
		t.LookupIn(fk.Column, nil)
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

// ResidentBytes returns the bytes the table's in-memory columns occupy —
// the tails, which on a table that never pages are the whole columns,
// and the dictionaries (entries at the size of a Value plus their string
// bytes) — computed from their lengths. Derived structures — hash
// indexes, evidence — are not counted.
func (t *Table) ResidentBytes() int64 {
	valueSize := int64(unsafe.Sizeof(Value{}))
	var b int64
	for _, c := range t.cur.Load().Cols {
		b += int64(len(c.Tail.Floats))*8 + int64(len(c.Tail.Codes))*4 + int64(len(c.Dict))*valueSize
		for _, v := range c.Dict {
			if v.Kind() == KindString {
				b += int64(len(v.Str()))
			}
		}
	}
	return b
}

// FloatColumn returns the dense float64 form of a numeric column — one
// entry per row, NaN where the cell is NULL — when the store holds it
// whole, which a store that has sealed nothing does. It is the column's
// storage, shared and never to be modified. Any other column, or a store
// that has sealed segments, yields nil: read it through FloatReader.
func (t *Table) FloatColumn(col string) []float64 {
	ci := t.mustColumn(col)
	if s := t.cur.Load(); s.Base == 0 {
		return s.Cols[ci].Tail.Floats
	}
	return nil
}

// FloatReader returns the segmented float view of a numeric column over
// the rows published when it is called. It panics on any other column.
func (t *Table) FloatReader(col string) FloatReader {
	return t.reader(col, true)
}

// DictReader returns the segmented dictionary view of a non-numeric
// column over the rows published when it is called. It panics on a
// numeric column.
func (t *Table) DictReader(col string) DictReader {
	return t.reader(col, false)
}

func (t *Table) reader(col string, floats bool) colReader {
	ci := t.mustColumn(col)
	if numeric(t.schema.Columns[ci].Kind) != floats {
		panic(fmt.Sprintf("relation: %s.%s is a %s column", t.Name(), col, t.schema.Columns[ci].Kind))
	}
	return colReader{t, t.cur.Load(), ci}
}

// Lookup returns the IDs of rows whose col equals v, ascending. The
// returned slice is shared and must not be modified.
func (t *Table) Lookup(col string, v Value) []int {
	return t.LookupIn(col, []Value{v})
}

// LookupIn returns the IDs of rows whose col equals any of vals, in
// ascending row order without duplicates. Matching is kind-exact: an Int
// never matches a Float column and vice versa; NULL matches NULL cells.
// A store that never pages answers from a hash index, built (or
// tail-extended) on first use; a paged one keeps none and scans the
// segments its evidence cannot rule out. The returned slice may be
// shared and must not be modified.
func (t *Table) LookupIn(col string, vals []Value) []int {
	ci := t.mustColumn(col)
	if t.pager != nil {
		return t.scanLookup(ci, vals)
	}
	buckets := t.indexLookup(ci, vals)
	if len(buckets) == 1 {
		return buckets[0]
	}
	var out []int
	for _, bucket := range buckets {
		out = append(out, bucket...)
	}
	sort.Ints(out)
	return dedupSorted(out)
}

// indexLookup resolves rows whose column ci equals each of vals through
// the hash index, building or tail-extending it first so it covers at
// least the rows published when the call started. Keys are the boxed
// cell values. The map is only touched under the lock — extension
// mutates bucket headers in place — but the returned buckets are safe to
// use after release: an extension only ever writes past their published
// len.
func (t *Table) indexLookup(ci int, vals []Value) [][]int {
	col := t.schema.Columns[ci].Name
	s := t.cur.Load()
	t.idxMu.RLock()
	idx := t.indexes[col]
	if idx == nil || idx.n < s.N {
		t.idxMu.RUnlock()
		t.idxMu.Lock()
		if idx = t.indexes[col]; idx == nil {
			idx = &colIndex{buckets: make(map[Value][]int)}
			t.indexes[col] = idx
		}
		for ; idx.n < s.N; idx.n++ {
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

// scanLookup resolves vals against column ci of a paged store by
// scanning its segments in row order, skipping those its evidence rules
// out: a full-text column's term lists name exactly the segments holding
// each value; elsewhere a Bloom filter that rules out every value, or on
// a numeric column a zone that misses their span, proves a segment
// irrelevant. A lookup for NULL scans everything.
func (t *Table) scanLookup(ci int, vals []Value) []int {
	s := t.cur.Load()
	col, c := t.schema.Columns[ci], &s.Cols[ci]
	wantNull := false
	var (
		probes  []Value        // the non-NULL values a row may hold
		targets []float64      // numeric column: those values
		want    map[int32]bool // dictionary column: their codes
		lo, hi  = math.Inf(1), math.Inf(-1)
	)
	if numeric(col.Kind) {
		for _, v := range vals {
			if v.IsNull() {
				wantNull = true
			} else if v.Kind() == col.Kind {
				f := v.AsFloat()
				probes, targets = append(probes, v), append(targets, f)
				lo, hi = min(lo, f), max(hi, f)
			}
		}
	} else {
		want = make(map[int32]bool, len(vals))
		t.dictMu.RLock()
		for _, v := range vals {
			if v.IsNull() {
				wantNull = true
			} else if code, ok := t.codeOf[ci][v]; ok && int(code) < len(c.Dict) {
				probes, want[code] = append(probes, v), true
			}
		}
		t.dictMu.RUnlock()
	}
	if len(probes) == 0 && !wantNull {
		return nil
	}
	nseg := NumSegments(s.N, t.segSize)
	var listed []bool
	if c.Terms != nil && !wantNull {
		listed = make([]bool, nseg)
		for code := range want {
			for _, si := range c.Terms[code] {
				listed[si] = true
			}
		}
	}

	r := colReader{t, s, ci}
	var out []int
	skippedBloom, skippedZone := 0, 0
	for si := 0; si < nseg; si++ {
		if !wantNull {
			switch {
			case si < len(c.Zones) && !c.Zones[si].Overlaps(lo, hi):
				skippedZone++
				continue
			case listed != nil && !listed[si],
				listed == nil && si < len(c.Blooms) && !c.Blooms[si].mayContainAny(probes):
				skippedBloom++
				continue
			}
		}
		base := si * t.segSize
		if numeric(col.Kind) {
			for i, f := range r.FloatSegment(si) {
				if math.IsNaN(f) && wantNull || slices.Contains(targets, f) {
					out = append(out, base+i)
				}
			}
			continue
		}
		for i, code := range r.CodeSegment(si) {
			if code < 0 && wantNull || want[code] {
				out = append(out, base+i)
			}
		}
	}
	t.pager.NoteSkips(skippedBloom, skippedZone)
	return out
}

// Scan calls fn for every row ID in insertion order, stopping early if fn
// returns false. Each row is materialised from the columns into one
// scratch slice that is only valid during the call — fn must copy what
// it keeps. Use the column readers directly for anything hot.
func (t *Table) Scan(fn func(id int, row []Value) bool) {
	s := t.cur.Load()
	var row []Value
	for id := 0; id < s.N; id++ {
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
