package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"kdap/internal/cache"
	"kdap/internal/relation"
)

// Disk-backed segment storage: the relation.Pager of a paged table. A
// table is laid out as one raw data file per column (float64 rows for
// numeric columns, int32 dictionary codes otherwise) plus a binary
// manifest carrying the dictionaries and the per-segment skip evidence —
// zone maps over numeric columns, Bloom filters over foreign-key and
// full-text columns, and per-term segment lists for full-text columns.
// The table owns the tail, the dictionaries and the evidence; the Store
// writes each segment the table seals to the column files, pages sealed
// segments back in through a byte-budgeted CLOCK cache, and on Flush
// writes the open tail and encodes the table's evidence into the
// manifest, which it preloads on open. So a warehouse orders of
// magnitude beyond RAM answers drills in bounded residency.

// Manifest magic: format name + version in eight bytes.
const segMagic = "KDAPSEG1"

const (
	manifestName  = "manifest.kdseg"
	colFilePat    = "col_%d.dat"
	filePerm      = 0o644 // column files and manifests alike
	floatRowBytes = 8
	codeRowBytes  = 4
)

// DefaultSegmentCacheBytes is the Store's default page-cache budget.
const DefaultSegmentCacheBytes = 64 << 20

// column flag bits in the manifest.
const (
	flagDict     = 1 << 0
	flagZones    = 1 << 1
	flagBloom    = 1 << 2
	flagTermSegs = 1 << 3
)

// manifest is the decoded form of the manifest file.
type manifest struct {
	segSize int
	numRows int
	cols    []manifestCol
}

// manifestCol is one column's manifest record.
type manifestCol struct {
	name     string
	kind     relation.Kind
	dict     []relation.Value
	zones    []relation.Zone  // per segment, numeric columns only
	blooms   []relation.Bloom // per segment, bloom columns only
	termSegs [][]int32        // per dict code, full-text dict columns only
	isDict   bool
}

// numSegs returns the manifest's segment count.
func (m *manifest) numSegs() int { return relation.NumSegments(m.numRows, m.segSize) }

// ---------------------------------------------------------------------
// Manifest encoding

type manifestEncoder struct{ b []byte }

func (e *manifestEncoder) u8(v byte)     { e.b = append(e.b, v) }
func (e *manifestEncoder) u16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *manifestEncoder) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *manifestEncoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *manifestEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *manifestEncoder) value(v relation.Value) {
	e.u8(byte(v.Kind()))
	switch v.Kind() {
	case relation.KindString:
		s := v.Str()
		e.u32(uint32(len(s)))
		e.b = append(e.b, s...)
	case relation.KindInt:
		e.u64(uint64(v.IntVal()))
	case relation.KindFloat:
		e.f64(v.FloatVal())
	case relation.KindBool:
		if v.BoolVal() {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
}

// encodeManifest serializes a manifest. The layout is fixed little-
// endian with length-prefixed variable parts; see decodeManifest for
// the authoritative grammar.
func encodeManifest(m *manifest) []byte {
	e := &manifestEncoder{b: make([]byte, 0, 1<<16)}
	e.b = append(e.b, segMagic...)
	e.u32(uint32(m.segSize))
	e.u64(uint64(m.numRows))
	e.u32(uint32(len(m.cols)))
	nseg := m.numSegs()
	for _, c := range m.cols {
		e.u16(uint16(len(c.name)))
		e.b = append(e.b, c.name...)
		e.u8(byte(c.kind))
		var flags byte
		if c.isDict {
			flags |= flagDict
		}
		if c.zones != nil {
			flags |= flagZones
		}
		if c.blooms != nil {
			flags |= flagBloom
		}
		if c.termSegs != nil {
			flags |= flagTermSegs
		}
		e.u8(flags)
		if c.isDict {
			e.u32(uint32(len(c.dict)))
			for _, v := range c.dict {
				e.value(v)
			}
		}
		if c.zones != nil {
			for si := 0; si < nseg; si++ {
				e.f64(c.zones[si].Min)
				e.f64(c.zones[si].Max)
			}
		}
		if c.blooms != nil {
			for si := 0; si < nseg; si++ {
				f := c.blooms[si]
				e.u32(f.K)
				e.u32(uint32(len(f.Bits)))
				e.b = append(e.b, f.Bits...)
			}
		}
		if c.termSegs != nil {
			e.u32(uint32(len(c.termSegs)))
			for _, segs := range c.termSegs {
				e.u32(uint32(len(segs)))
				for _, s := range segs {
					e.u32(uint32(s))
				}
			}
		}
	}
	return e.b
}

// ---------------------------------------------------------------------
// Manifest decoding. The decoder is the fuzz surface: every length is
// validated against the remaining input before allocation, and every
// structural inconsistency returns an error — it must never panic or
// over-allocate on adversarial bytes.

type manifestDecoder struct {
	b   []byte
	off int
}

var errTruncated = fmt.Errorf("persist: manifest truncated")

func (d *manifestDecoder) remaining() int { return len(d.b) - d.off }

func (d *manifestDecoder) take(n int) ([]byte, error) {
	if n < 0 || d.remaining() < n {
		return nil, errTruncated
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *manifestDecoder) u8() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *manifestDecoder) u16() (uint16, error) {
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (d *manifestDecoder) u32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *manifestDecoder) u64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *manifestDecoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *manifestDecoder) value() (relation.Value, error) {
	k, err := d.u8()
	if err != nil {
		return relation.Value{}, err
	}
	switch relation.Kind(k) {
	case relation.KindNull:
		return relation.Null(), nil
	case relation.KindString:
		n, err := d.u32()
		if err != nil {
			return relation.Value{}, err
		}
		b, err := d.take(int(n))
		if err != nil {
			return relation.Value{}, err
		}
		return relation.String(string(b)), nil
	case relation.KindInt:
		v, err := d.u64()
		return relation.Int(int64(v)), err
	case relation.KindFloat:
		v, err := d.f64()
		return relation.Float(v), err
	case relation.KindBool:
		b, err := d.u8()
		return relation.Bool(b != 0), err
	default:
		return relation.Value{}, fmt.Errorf("persist: manifest value kind %d", k)
	}
}

// maxManifestSegs bounds the segment count implied by a manifest header
// so a forged (rows, segSize) pair cannot drive huge zone allocations.
const maxManifestSegs = 1 << 24

// decodeManifest parses a manifest buffer.
func decodeManifest(data []byte) (*manifest, error) {
	d := &manifestDecoder{b: data}
	magic, err := d.take(len(segMagic))
	if err != nil {
		return nil, err
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("persist: bad segment magic %q", magic)
	}
	ssz, err := d.u32()
	if err != nil {
		return nil, err
	}
	if !relation.ValidSegmentSize(int(ssz)) {
		return nil, fmt.Errorf("persist: invalid segment size %d", ssz)
	}
	rows, err := d.u64()
	if err != nil {
		return nil, err
	}
	if rows > math.MaxInt64/floatRowBytes {
		return nil, fmt.Errorf("persist: absurd row count %d", rows)
	}
	m := &manifest{segSize: int(ssz), numRows: int(rows)}
	nseg := m.numSegs()
	if nseg > maxManifestSegs {
		return nil, fmt.Errorf("persist: %d segments exceeds limit", nseg)
	}
	ncols, err := d.u32()
	if err != nil {
		return nil, err
	}
	for ci := 0; ci < int(ncols); ci++ {
		var c manifestCol
		nameLen, err := d.u16()
		if err != nil {
			return nil, err
		}
		name, err := d.take(int(nameLen))
		if err != nil {
			return nil, err
		}
		c.name = string(name)
		kind, err := d.u8()
		if err != nil {
			return nil, err
		}
		c.kind = relation.Kind(kind)
		flags, err := d.u8()
		if err != nil {
			return nil, err
		}
		c.isDict = flags&flagDict != 0
		numeric := c.kind == relation.KindInt || c.kind == relation.KindFloat
		if c.isDict == numeric {
			return nil, fmt.Errorf("persist: column %q: kind %s with dict=%v", c.name, c.kind, c.isDict)
		}
		if c.isDict {
			dictLen, err := d.u32()
			if err != nil {
				return nil, err
			}
			// A dict entry is at least two bytes on the wire; reject
			// counts the remaining input cannot possibly hold.
			if int(dictLen) > d.remaining() {
				return nil, errTruncated
			}
			c.dict = make([]relation.Value, 0, dictLen)
			for i := 0; i < int(dictLen); i++ {
				v, err := d.value()
				if err != nil {
					return nil, err
				}
				if v.IsNull() {
					return nil, fmt.Errorf("persist: column %q: NULL in dictionary", c.name)
				}
				c.dict = append(c.dict, v)
			}
		}
		if flags&flagZones != 0 {
			if !numeric {
				return nil, fmt.Errorf("persist: column %q: zones on non-numeric column", c.name)
			}
			c.zones = make([]relation.Zone, nseg)
			for si := 0; si < nseg; si++ {
				if c.zones[si].Min, err = d.f64(); err != nil {
					return nil, err
				}
				if c.zones[si].Max, err = d.f64(); err != nil {
					return nil, err
				}
			}
		}
		if flags&flagBloom != 0 {
			c.blooms = make([]relation.Bloom, nseg)
			for si := 0; si < nseg; si++ {
				k, err := d.u32()
				if err != nil {
					return nil, err
				}
				if k == 0 || k > 64 {
					return nil, fmt.Errorf("persist: column %q: bloom k=%d", c.name, k)
				}
				nbytes, err := d.u32()
				if err != nil {
					return nil, err
				}
				bits, err := d.take(int(nbytes))
				if err != nil {
					return nil, err
				}
				c.blooms[si] = relation.Bloom{Bits: append([]byte(nil), bits...), K: k}
			}
		}
		if flags&flagTermSegs != 0 {
			if !c.isDict {
				return nil, fmt.Errorf("persist: column %q: term segments on non-dict column", c.name)
			}
			n, err := d.u32()
			if err != nil {
				return nil, err
			}
			if int(n) != len(c.dict) {
				return nil, fmt.Errorf("persist: column %q: %d term-segment lists for %d dict entries", c.name, n, len(c.dict))
			}
			c.termSegs = make([][]int32, n)
			for i := range c.termSegs {
				cnt, err := d.u32()
				if err != nil {
					return nil, err
				}
				if int(cnt) > nseg || int(cnt)*4 > d.remaining() {
					return nil, errTruncated
				}
				segs := make([]int32, cnt)
				for j := range segs {
					s, err := d.u32()
					if err != nil {
						return nil, err
					}
					if int(s) >= nseg {
						return nil, fmt.Errorf("persist: column %q: term segment %d out of range", c.name, s)
					}
					segs[j] = int32(s)
				}
				c.termSegs[i] = segs
			}
		}
		m.cols = append(m.cols, c)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("persist: %d trailing manifest bytes", d.remaining())
	}
	return m, nil
}

// ---------------------------------------------------------------------
// Store: the pager.

// SegStats is a snapshot of a Store's paging and skip counters, exported
// as kdap_segments_*_total.
type SegStats struct {
	// Resident counts segment reads served from the page cache;
	// PagedIn counts reads that went to disk; Evicted counts segments
	// dropped to stay inside the cache budget. They are the page
	// cache's hits, misses and evictions.
	Resident, PagedIn, Evicted int64
	// SkippedBloom / SkippedZone count segments a value lookup skipped
	// without touching their pages: on membership evidence (a Bloom
	// filter or a full-text term's segment list ruled every value out)
	// or on a zone map.
	SkippedBloom, SkippedZone int64
}

// segKey addresses one cached segment.
type segKey struct{ ci, si int }

// Store is the pager of one paged table over a segment directory: it
// writes sealed segments to the column files and pages them back in on
// demand through a page cache bounded by bytes. Safe for concurrent
// use; the table serializes Seal and Flush under its append lock.
type Store struct {
	dir     string
	segSize int
	numeric []bool
	files   []*os.File
	t       *relation.Table
	// flushed is the row count the manifest on disk describes; guarded
	// by the table's append lock (Persist).
	flushed int

	pages *cache.Clock[segKey, relation.Segment]

	skippedBloom atomic.Int64
	skippedZone  atomic.Int64
}

// width returns the bytes per row of column ci's file.
func (st *Store) width(ci int) int {
	if st.numeric[ci] {
		return floatRowBytes
	}
	return codeRowBytes
}

// OpenBackedTable opens dir as the storage of a paged relation.Table:
// the manifest must echo the schema, every data file must hold at least
// the manifest's row count (rows past it, sealed after the last Flush,
// are truncated away), and the table starts preloaded with the
// manifest's dictionaries and evidence and the open segment's rows. The
// returned Store is the table's pager; callers keep it to set the cache
// budget, poll paging stats, Flush and Close.
func OpenBackedTable(dir string, schema *relation.Schema) (*relation.Table, *Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, nil, err
	}
	if len(m.cols) != len(schema.Columns) {
		return nil, nil, fmt.Errorf("persist: %s: manifest has %d columns, schema %d", schema.Name, len(m.cols), len(schema.Columns))
	}
	st := &Store{
		dir:     dir,
		segSize: m.segSize,
		flushed: m.numRows,
		pages:   cache.NewWeightedClock[segKey](DefaultSegmentCacheBytes, segBytes),
	}
	state := relation.StoreState{N: m.numRows, Base: m.numRows - m.numRows%m.segSize}
	ok := false
	defer func() {
		if !ok {
			st.closeFiles()
		}
	}()
	for ci, mc := range m.cols {
		sc := schema.Columns[ci]
		if mc.name != sc.Name || mc.kind != sc.Kind {
			return nil, nil, fmt.Errorf("persist: %s: column %d is %s:%s on disk, %s:%s in schema",
				schema.Name, ci, mc.name, mc.kind, sc.Name, sc.Kind)
		}
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf(colFilePat, ci)), os.O_RDWR, 0)
		if err != nil {
			return nil, nil, err
		}
		st.files = append(st.files, f)
		st.numeric = append(st.numeric, !mc.isDict)
		fi, err := f.Stat()
		if err != nil {
			return nil, nil, err
		}
		// The manifest is the commit point: bytes past its row count are
		// a segment sealed after the last Flush, and are dropped.
		want := int64(m.numRows) * int64(st.width(ci))
		if fi.Size() < want {
			return nil, nil, fmt.Errorf("persist: %s.%s: data file holds %d bytes, want %d",
				schema.Name, sc.Name, fi.Size(), want)
		}
		if fi.Size() > want {
			if err := f.Truncate(want); err != nil {
				return nil, nil, err
			}
		}
		tail, err := st.readRows(ci, state.Base, state.N-state.Base)
		if err != nil {
			return nil, nil, err
		}
		state.Cols = append(state.Cols, relation.StoreColumn{
			Tail: tail, Dict: mc.dict, Zones: mc.zones, Blooms: mc.blooms, Terms: mc.termSegs,
		})
	}
	t, err := relation.NewPagedTable(schema, m.segSize, st, state)
	if err != nil {
		return nil, nil, err
	}
	st.t = t
	ok = true
	return t, st, nil
}

// CreateBackedTable writes an empty segment directory for schema under
// dir (created if absent, its segment files replaced) — zero-row column
// files and a manifest carrying no evidence yet — and opens it as a
// paged table. The table fills like any other, through Table.AppendFacts
// (relation.BatchAppender for a stream); Store.Flush or Close makes the
// appended rows durable. segSize is the rows per segment, a power of two
// of at least 64; 0 selects relation.DefaultSegmentSize.
func CreateBackedTable(dir string, schema *relation.Schema, segSize int) (*relation.Table, *Store, error) {
	if segSize == 0 {
		segSize = relation.DefaultSegmentSize
	}
	if !relation.ValidSegmentSize(segSize) {
		return nil, nil, fmt.Errorf("persist: invalid segment size %d (want a power of two >= 64)", segSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	m := &manifest{segSize: segSize}
	for ci, c := range schema.Columns {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(colFilePat, ci)), nil, filePerm); err != nil {
			return nil, nil, err
		}
		m.cols = append(m.cols, manifestCol{name: c.Name, kind: c.Kind, isDict: c.Kind != relation.KindInt && c.Kind != relation.KindFloat})
	}
	if err := writeAtomic(dir, manifestName, encodeManifest(m)); err != nil {
		return nil, nil, err
	}
	return OpenBackedTable(dir, schema)
}

// Flush writes the table's open segment to the column files and its
// dictionaries and evidence to the manifest, so the directory reopens
// with every appended row intact. The column files are synced before
// the new manifest is renamed over the old one: the manifest is the
// commit point. It is a no-op when nothing was appended since the last
// Flush.
func (st *Store) Flush() error {
	return st.t.Persist(func(s *relation.StoreState) error {
		if s.N == st.flushed {
			return nil
		}
		m := &manifest{segSize: st.segSize, numRows: s.N}
		tails := make([]relation.Segment, len(s.Cols))
		for ci, c := range s.Cols {
			tails[ci] = c.Tail
			col := st.t.Schema().Columns[ci]
			mc := manifestCol{name: col.Name, kind: col.Kind, isDict: !st.numeric[ci], dict: c.Dict, zones: c.Zones, blooms: c.Blooms}
			if len(c.Terms) > 0 { // a column with no values yet carries no lists
				mc.termSegs = c.Terms
			}
			m.cols = append(m.cols, mc)
		}
		if err := st.Seal(s.Base/st.segSize, tails); err != nil {
			return err
		}
		for _, f := range st.files {
			if err := f.Sync(); err != nil {
				return err
			}
		}
		if err := writeAtomic(st.dir, manifestName, encodeManifest(m)); err != nil {
			return err
		}
		st.flushed = s.N
		return nil
	})
}

// Close flushes the table and releases the column files.
func (st *Store) Close() error {
	err := st.Flush()
	if cerr := st.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (st *Store) closeFiles() error {
	var first error
	for _, f := range st.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.files = nil
	return first
}

// SetCacheBudget sets the page-cache byte budget. 0 or negative means
// unbounded. Shrinking evicts immediately.
func (st *Store) SetCacheBudget(bytes int64) {
	if bytes <= 0 {
		bytes = math.MaxInt64
	}
	st.pages.SetBudget(bytes)
}

// DropCache discards every cached segment page, so the next reads page
// in from disk again — the cold-cache hook benchmarks use. Unlike
// budget-pressure eviction, dropped pages are not counted in
// SegStats.Evicted.
func (st *Store) DropCache() { st.pages.Purge() }

// Stats snapshots the paging and skip counters.
func (st *Store) Stats() SegStats {
	pages := st.pages.Stats()
	return SegStats{
		Resident:     pages.Hits,
		PagedIn:      pages.Misses,
		Evicted:      pages.Evictions,
		SkippedBloom: st.skippedBloom.Load(),
		SkippedZone:  st.skippedZone.Load(),
	}
}

// NoteSkips implements relation.Pager.
func (st *Store) NoteSkips(bloom, zone int) {
	st.skippedBloom.Add(int64(bloom))
	st.skippedZone.Add(int64(zone))
}

// Seal implements relation.Pager: it writes segment si of every column
// at its final offset. Flush uses it for the open segment too.
func (st *Store) Seal(si int, cols []relation.Segment) error {
	for ci, seg := range cols {
		var buf []byte
		if st.numeric[ci] {
			buf = make([]byte, 0, len(seg.Floats)*floatRowBytes)
			for _, f := range seg.Floats {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
		} else {
			buf = make([]byte, 0, len(seg.Codes)*codeRowBytes)
			for _, code := range seg.Codes {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(code))
			}
		}
		if _, err := st.files[ci].WriteAt(buf, int64(si)*int64(st.segSize)*int64(st.width(ci))); err != nil {
			return err
		}
	}
	return nil
}

// readRows reads rows [lo, lo+n) of column ci from its file.
func (st *Store) readRows(ci, lo, n int) (relation.Segment, error) {
	buf := make([]byte, n*st.width(ci))
	if _, err := st.files[ci].ReadAt(buf, int64(lo)*int64(st.width(ci))); err != nil && n > 0 {
		return relation.Segment{}, err
	}
	if st.numeric[ci] {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*floatRowBytes:]))
		}
		return relation.Segment{Floats: vals}, nil
	}
	codes := make([]int32, n)
	for i := range codes {
		codes[i] = int32(binary.LittleEndian.Uint32(buf[i*codeRowBytes:]))
	}
	return relation.Segment{Codes: codes}, nil
}

// ReadSegment implements relation.Pager: the cached or freshly paged
// sealed segment (ci, si). Concurrent misses on one segment may both
// read it; they read the same bytes, and the later store replaces the
// earlier.
func (st *Store) ReadSegment(ci, si int) relation.Segment {
	key := segKey{ci, si}
	if seg, ok := st.pages.Get(key); ok {
		return seg
	}
	seg, err := st.readRows(ci, si*st.segSize, st.segSize)
	if err != nil {
		panic(fmt.Sprintf("persist: %s segment %d: %v", st.t.Schema().Columns[ci].Name, si, err))
	}
	st.pages.Put(key, seg)
	return seg
}

// segBytes is the page-cache footprint of one segment.
func segBytes(seg relation.Segment) int64 {
	return int64(len(seg.Floats)*floatRowBytes + len(seg.Codes)*codeRowBytes)
}
