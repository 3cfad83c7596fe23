package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"kdap/internal/relation"
)

// Disk-backed segmented column storage: the on-disk implementation of
// relation.ColumnBacking. A table is laid out as one raw data file per
// column (float64 rows for numeric columns, int32 dictionary codes
// otherwise) plus a binary manifest carrying the dictionaries and the
// per-segment skip evidence — zone maps over numeric columns, Bloom
// filters over foreign-key and full-text columns, and per-term segment
// lists for full-text columns. A directory starts empty
// (CreateBackedTable) and grows only by appends to its open tail
// segment (Store.AppendRows, never holding more than that segment), and
// the Store pages sealed segments back out through a byte-budgeted LRU
// cache, so a warehouse orders of magnitude beyond RAM answers drills in
// bounded residency.

// Manifest magic: format name + version in eight bytes.
const segMagic = "KDAPSEG1"

const (
	manifestName  = "manifest.kdseg"
	colFilePat    = "col_%d.dat"
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
	zones    []relation.Zone // per segment, numeric columns only
	blooms   []bloomFilter   // per segment, bloom columns only
	termSegs [][]int32       // per dict code, full-text dict columns only
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
				e.u32(f.k)
				e.u32(uint32(len(f.bits)))
				e.b = append(e.b, f.bits...)
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
			c.blooms = make([]bloomFilter, nseg)
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
				c.blooms[si] = bloomFilter{bits: append([]byte(nil), bits...), k: k}
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
// Store: the pageable read side.

// SegStats is a snapshot of a Store's paging and skip counters, exported
// as kdap_segments_*_total.
type SegStats struct {
	// Resident counts segment reads served from the page cache;
	// PagedIn counts reads that went to disk; Evicted counts segments
	// dropped to stay inside the cache budget.
	Resident, PagedIn, Evicted int64
	// SkippedBloom / SkippedZone count segments a scan skipped on
	// Bloom-filter or zone-map evidence without touching their pages.
	SkippedBloom, SkippedZone int64
}

// segKey addresses one cached segment.
type segKey struct{ ci, si int }

// cacheEnt is one cached segment with LRU links (intrusive list).
type cacheEnt struct {
	key        segKey
	f64        []float64
	i32        []int32
	size       int64
	prev, next *cacheEnt
}

// storeCol is one column's open state. The skip-evidence fields (dict,
// zones, blooms, termSeg, codeOf) and the open-tail buffers are guarded
// by the Store's metaMu once the store has been made appendable; before
// that they are immutable.
type storeCol struct {
	col     relation.Column
	numeric bool
	f       *os.File
	dict    []relation.Value
	zones   []relation.Zone
	blooms  []bloomFilter
	termSeg [][]int32

	codeOf map[relation.Value]int32

	// Append-side state (nil/zero until ensureAppendable). tailF/tailC
	// hold the open — not yet sealed — segment's values, served to
	// readers in place of a file read. They follow the resident table's
	// publication rule: a buffer has capacity segSize, the writer only
	// appends past the length readers were handed, and sealing replaces
	// the buffer rather than reusing it, so a header a reader holds stays
	// valid forever. wf is the write handle used to seal full segments
	// and flush partial tails.
	wf       *os.File
	tailF    []float64
	tailC    []int32
	zoneAcc  relation.Zone
	openHash map[uint64]struct{}
}

// Store opens a segment directory for reading and implements
// relation.ColumnBacking over it: column readers page 8 KiB–64 KiB
// segments in on demand through a byte-budgeted LRU, and the manifest's
// zone maps and Bloom filters answer skip queries without I/O. Safe for
// concurrent use, including concurrently with AppendRows: the row count
// is published atomically after the rows' values and skip evidence, so
// a reader that observed NumRows() == n can resolve everything below n.
type Store struct {
	dir     string
	segSize int
	numRows atomic.Int64
	schema  *relation.Schema
	cols    []*storeCol
	byName  map[string]int

	// metaMu guards the per-column skip evidence and tail buffers
	// against AppendRows. Read paths hold it briefly; the writer holds
	// it only while publishing a staged chunk, never during file I/O.
	metaMu sync.RWMutex
	// amu serializes appenders; appendable marks that the open tail has
	// been lifted into the tail buffers and write handles are open.
	amu        sync.Mutex
	appendable bool
	dirty      bool
	// openSeg is the index of the open (unsealed) segment; -1 when the
	// store is not appendable. Guarded by metaMu.
	openSeg int

	mu     sync.Mutex
	cache  map[segKey]*cacheEnt
	head   *cacheEnt // most recent
	tail   *cacheEnt // least recent
	usage  int64
	budget int64

	resident     atomic.Int64
	pagedIn      atomic.Int64
	evicted      atomic.Int64
	skippedBloom atomic.Int64
	skippedZone  atomic.Int64
}

// OpenStore opens the segment directory and validates it against the
// schema: every schema column must be present with the matching kind,
// and every data file must hold exactly the manifest's row count.
func OpenStore(dir string, schema *relation.Schema) (*Store, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, err
	}
	st := &Store{
		dir:     dir,
		segSize: m.segSize,
		schema:  schema,
		openSeg: -1,
		cache:   make(map[segKey]*cacheEnt),
		budget:  DefaultSegmentCacheBytes,
		byName:  make(map[string]int, len(m.cols)),
	}
	st.numRows.Store(int64(m.numRows))
	if len(m.cols) != len(schema.Columns) {
		return nil, fmt.Errorf("persist: %s: manifest has %d columns, schema %d", schema.Name, len(m.cols), len(schema.Columns))
	}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()
	for ci, mc := range m.cols {
		sc := schema.Columns[ci]
		if mc.name != sc.Name || mc.kind != sc.Kind {
			return nil, fmt.Errorf("persist: %s: column %d is %s:%s on disk, %s:%s in schema",
				schema.Name, ci, mc.name, mc.kind, sc.Name, sc.Kind)
		}
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf(colFilePat, ci)))
		if err != nil {
			return nil, err
		}
		col := &storeCol{
			col:     sc,
			numeric: !mc.isDict,
			f:       f,
			dict:    mc.dict,
			zones:   mc.zones,
			blooms:  mc.blooms,
			termSeg: mc.termSegs,
		}
		width := int64(codeRowBytes)
		if col.numeric {
			width = floatRowBytes
		}
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if fi.Size() != int64(m.numRows)*width {
			return nil, fmt.Errorf("persist: %s.%s: data file holds %d bytes, want %d",
				schema.Name, sc.Name, fi.Size(), int64(m.numRows)*width)
		}
		st.cols = append(st.cols, col)
		st.byName[sc.Name] = ci
	}
	ok = true
	return st, nil
}

// Close flushes any unflushed appended tail and releases the column
// file handles.
func (st *Store) Close() error {
	var first error
	if st.dirty {
		first = st.Flush()
	}
	for _, c := range st.cols {
		if c.f != nil {
			if err := c.f.Close(); err != nil && first == nil {
				first = err
			}
			c.f = nil
		}
		if c.wf != nil {
			if err := c.wf.Close(); err != nil && first == nil {
				first = err
			}
			c.wf = nil
		}
	}
	return first
}

// SetCacheBudget sets the page-cache byte budget. 0 or negative means
// unbounded. Shrinking evicts immediately.
func (st *Store) SetCacheBudget(bytes int64) {
	st.mu.Lock()
	st.budget = bytes
	st.evictLocked(nil)
	st.mu.Unlock()
}

// DropCache discards every cached segment page, so the next reads page
// in from disk again — the cold-cache hook benchmarks use. Unlike
// budget-pressure eviction, dropped pages are not counted in
// SegStats.Evicted.
func (st *Store) DropCache() {
	st.mu.Lock()
	st.cache = make(map[segKey]*cacheEnt)
	st.head, st.tail = nil, nil
	st.usage = 0
	st.mu.Unlock()
}

// Stats snapshots the paging and skip counters.
func (st *Store) Stats() SegStats {
	return SegStats{
		Resident:     st.resident.Load(),
		PagedIn:      st.pagedIn.Load(),
		Evicted:      st.evicted.Load(),
		SkippedBloom: st.skippedBloom.Load(),
		SkippedZone:  st.skippedZone.Load(),
	}
}

// NumRows implements relation.ColumnBacking. The count is published
// atomically after its rows' data and skip evidence.
func (st *Store) NumRows() int { return int(st.numRows.Load()) }

// SegmentSize implements relation.ColumnBacking.
func (st *Store) SegmentSize() int { return st.segSize }

// colIndex resolves a column name, or -1.
func (st *Store) colIndex(name string) int {
	if i, ok := st.byName[name]; ok {
		return i
	}
	return -1
}

// FloatReader implements relation.ColumnBacking.
func (st *Store) FloatReader(col string) relation.FloatReader {
	ci := st.colIndex(col)
	if ci < 0 || !st.cols[ci].numeric {
		return nil
	}
	return storeFloatReader{st: st, ci: ci}
}

// DictReader implements relation.ColumnBacking.
func (st *Store) DictReader(col string) relation.DictReader {
	ci := st.colIndex(col)
	if ci < 0 || st.cols[ci].numeric {
		return nil
	}
	return storeDictReader{st: st, ci: ci}
}

// SegmentMayContain implements relation.ColumnBacking: Bloom evidence.
func (st *Store) SegmentMayContain(col string, si int, v relation.Value) (maybe, hasBloom bool) {
	ci := st.colIndex(col)
	if ci < 0 {
		return true, false
	}
	st.metaMu.RLock()
	defer st.metaMu.RUnlock()
	if st.cols[ci].blooms == nil || si >= len(st.cols[ci].blooms) {
		return true, false
	}
	return st.cols[ci].blooms[si].mayContain(hashValue(v)), true
}

// SegmentZoneOverlaps implements relation.ColumnBacking: zone evidence.
func (st *Store) SegmentZoneOverlaps(col string, si int, lo, hi float64) (overlaps, hasZone bool) {
	ci := st.colIndex(col)
	if ci < 0 {
		return true, false
	}
	st.metaMu.RLock()
	defer st.metaMu.RUnlock()
	if st.cols[ci].zones == nil || si >= len(st.cols[ci].zones) {
		return true, false
	}
	return st.cols[ci].zones[si].Overlaps(lo, hi), true
}

// NoteSkips implements relation.ColumnBacking.
func (st *Store) NoteSkips(bloom, zone int) {
	if bloom > 0 {
		st.skippedBloom.Add(int64(bloom))
	}
	if zone > 0 {
		st.skippedZone.Add(int64(zone))
	}
}

// ValueSegments implements relation.TermSegmenter: the ascending list
// of segments in which a full-text column holds v. ok is false when the
// column carries no term lists or v is outside its dictionary (an
// absent value occupies no segment — callers get an empty scan).
func (st *Store) ValueSegments(col string, v relation.Value) ([]int32, bool) {
	ci := st.colIndex(col)
	if ci < 0 {
		return nil, false
	}
	c := st.cols[ci]
	st.metaMu.RLock()
	if c.termSeg == nil {
		st.metaMu.RUnlock()
		return nil, false
	}
	if len(c.codeOf) >= len(c.dict) {
		code, ok := c.codeOf[v]
		segs := []int32(nil)
		if ok {
			segs = c.termSeg[code]
		}
		st.metaMu.RUnlock()
		return segs, true // a value outside the dictionary is definitively nowhere
	}
	st.metaMu.RUnlock()

	st.metaMu.Lock()
	defer st.metaMu.Unlock()
	st.extendCodeOfLocked(c)
	code, ok := c.codeOf[v]
	if !ok {
		return nil, true
	}
	return c.termSeg[code], true
}

// extendCodeOfLocked brings a column's value→code map up to its
// dictionary. Caller holds metaMu.
func (st *Store) extendCodeOfLocked(c *storeCol) {
	if c.codeOf == nil {
		c.codeOf = make(map[relation.Value]int32, len(c.dict))
	}
	for code := len(c.codeOf); code < len(c.dict); code++ {
		c.codeOf[c.dict[code]] = int32(code)
	}
}

// rowsInSeg returns the row count of segment si.
func (st *Store) rowsInSeg(si int) int {
	lo := si * st.segSize
	return min(st.segSize, st.NumRows()-lo)
}

// ---------------------------------------------------------------------
// Page cache.

// lruUnlink removes e from the LRU list.
func (st *Store) lruUnlink(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		st.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		st.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruPushFront makes e the most recent entry.
func (st *Store) lruPushFront(e *cacheEnt) {
	e.next = st.head
	if st.head != nil {
		st.head.prev = e
	}
	st.head = e
	if st.tail == nil {
		st.tail = e
	}
}

// evictLocked drops least-recent entries until usage fits the budget,
// never evicting keep (the entry being returned to a caller).
func (st *Store) evictLocked(keep *cacheEnt) {
	if st.budget <= 0 {
		return
	}
	for st.usage > st.budget && st.tail != nil {
		victim := st.tail
		if victim == keep {
			break
		}
		st.lruUnlink(victim)
		delete(st.cache, victim.key)
		st.usage -= victim.size
		st.evicted.Add(1)
	}
}

// loadSegment returns the cached or freshly paged segment (ci, si),
// covering at least the store's current row count. A cached entry paged
// in before appends grew the segment is shorter than the segment is
// now; such entries are discarded and reloaded rather than served.
func (st *Store) loadSegment(ci, si int) *cacheEnt {
	key := segKey{ci, si}
	want := st.rowsInSeg(si)
	st.mu.Lock()
	if e, ok := st.cache[key]; ok {
		if len(e.f64)+len(e.i32) >= want {
			if st.head != e {
				st.lruUnlink(e)
				st.lruPushFront(e)
			}
			st.mu.Unlock()
			st.resident.Add(1)
			return e
		}
		st.lruUnlink(e)
		delete(st.cache, key)
		st.usage -= e.size
	}
	st.mu.Unlock()

	// Page in outside the lock: concurrent misses on the same segment
	// may both read, but only one result is kept.
	c := st.cols[ci]
	n := st.rowsInSeg(si)
	if n < 0 {
		panic(fmt.Sprintf("persist: segment %d out of range for %d rows", si, st.NumRows()))
	}
	e := &cacheEnt{key: key}
	if c.numeric {
		buf := make([]byte, n*floatRowBytes)
		if _, err := c.f.ReadAt(buf, int64(si)*int64(st.segSize)*floatRowBytes); err != nil {
			panic(fmt.Sprintf("persist: %s segment %d: %v", c.col.Name, si, err))
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		e.f64, e.size = vals, int64(n*floatRowBytes)
	} else {
		buf := make([]byte, n*codeRowBytes)
		if _, err := c.f.ReadAt(buf, int64(si)*int64(st.segSize)*codeRowBytes); err != nil {
			panic(fmt.Sprintf("persist: %s segment %d: %v", c.col.Name, si, err))
		}
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		e.i32, e.size = codes, int64(n*codeRowBytes)
	}
	st.pagedIn.Add(1)

	st.mu.Lock()
	if prior, ok := st.cache[key]; ok && len(prior.f64)+len(prior.i32) >= n {
		e = prior // lost the page-in race; keep the published segment
		if st.head != e {
			st.lruUnlink(e)
			st.lruPushFront(e)
		}
	} else {
		if ok {
			prior := st.cache[key]
			st.lruUnlink(prior)
			delete(st.cache, key)
			st.usage -= prior.size
		}
		st.cache[key] = e
		st.lruPushFront(e)
		st.usage += e.size
		st.evictLocked(e)
	}
	st.mu.Unlock()
	return e
}

// storeFloatReader implements relation.FloatReader over one column.
type storeFloatReader struct {
	st *Store
	ci int
}

func (r storeFloatReader) Len() int         { return r.st.NumRows() }
func (r storeFloatReader) SegmentSize() int { return r.st.segSize }
func (r storeFloatReader) FloatSegment(si int) []float64 {
	if vals, ok := r.st.tailFloatSegment(r.ci, si); ok {
		return vals
	}
	return r.st.loadSegment(r.ci, si).f64
}

// storeDictReader implements relation.DictReader over one column.
type storeDictReader struct {
	st *Store
	ci int
}

func (r storeDictReader) Len() int         { return r.st.NumRows() }
func (r storeDictReader) SegmentSize() int { return r.st.segSize }
func (r storeDictReader) Dict() []relation.Value {
	r.st.metaMu.RLock()
	d := r.st.cols[r.ci].dict
	r.st.metaMu.RUnlock()
	return d
}
func (r storeDictReader) CodeSegment(si int) []int32 {
	if codes, ok := r.st.tailCodeSegment(r.ci, si); ok {
		return codes
	}
	return r.st.loadSegment(r.ci, si).i32
}

// tailFloatSegment serves the open segment's values from the tail
// buffer, capped at their published length so nothing the writer
// appends later is visible through it. ok is false when si is a sealed
// (file-resident) segment.
func (st *Store) tailFloatSegment(ci, si int) ([]float64, bool) {
	st.metaMu.RLock()
	defer st.metaMu.RUnlock()
	if si != st.openSeg {
		return nil, false
	}
	tail := st.cols[ci].tailF
	return tail[:len(tail):len(tail)], true
}

// tailCodeSegment is tailFloatSegment for dictionary columns.
func (st *Store) tailCodeSegment(ci, si int) ([]int32, bool) {
	st.metaMu.RLock()
	defer st.metaMu.RUnlock()
	if si != st.openSeg {
		return nil, false
	}
	tail := st.cols[ci].tailC
	return tail[:len(tail):len(tail)], true
}

// ---------------------------------------------------------------------
// Appendable tail: streaming ingest into an open store.
//
// Appended rows accumulate in per-column tail buffers that stand in for
// the open (last, partial) segment; readers resolve that segment from
// the buffers instead of the file. When the open segment fills it is
// sealed — written to the column files at its final offset, its zone
// map, Bloom filter, and term segment entries frozen — and a new open
// segment starts. This is the only encoder of the format: however the
// rows are split into batches, and across a reopen, the directory ends
// up byte-identical (testdata/segments.golden pins those bytes). Flush
// persists the partial tail and rewrites the manifest, making the
// directory reopenable mid-segment.

// ensureAppendableLocked lifts the open partial segment (if any) from
// the files into the tail buffers and opens write handles. Caller holds
// amu.
func (st *Store) ensureAppendableLocked() error {
	if st.appendable {
		return nil
	}
	n := st.NumRows()
	openLen := n % st.segSize
	openSi := -1
	if openLen > 0 {
		openSi = n / st.segSize
	}
	empty := n == 0
	for ci, c := range st.cols {
		wf, err := os.OpenFile(filepath.Join(st.dir, fmt.Sprintf(colFilePat, ci)), os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		c.wf = wf
	}
	st.metaMu.Lock()
	defer st.metaMu.Unlock()
	for _, c := range st.cols {
		// An empty store carries no evidence yet. This is where every
		// store's evidence families are chosen: zones on numeric columns,
		// Blooms on foreign keys and full-text columns, term segment
		// lists on full-text dictionary columns.
		if empty {
			if c.numeric && c.zones == nil {
				c.zones = []relation.Zone{}
			}
			if c.blooms == nil && st.bloomCol(c.col) {
				c.blooms = []bloomFilter{}
			}
		}
		// Term segment lists are created lazily at the first non-NULL
		// value, so a FullText column whose dictionary is still empty may
		// legitimately carry none yet.
		if !c.numeric && c.col.FullText && c.termSeg == nil && len(c.dict) == 0 {
			c.termSeg = [][]int32{}
		}
		c.zoneAcc = relation.EmptyZone()
		if c.blooms != nil {
			c.openHash = make(map[uint64]struct{})
		}
		if !c.numeric {
			st.extendCodeOfLocked(c)
		}
		c.newTail(st.segSize, openLen)
		if openLen == 0 {
			continue
		}
		// Lift the partial segment into the tail buffers and rebuild its
		// accumulators from its values.
		off := int64(openSi) * int64(st.segSize)
		if c.numeric {
			buf := make([]byte, openLen*floatRowBytes)
			if _, err := c.f.ReadAt(buf, off*floatRowBytes); err != nil {
				return err
			}
			for i := range c.tailF {
				f := math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
				c.tailF[i] = f
				c.zoneAcc.Observe(f)
				if !math.IsNaN(f) {
					if c.openHash != nil {
						c.openHash[hashValue(numericValue(c.col.Kind, f))] = struct{}{}
					}
				}
			}
		} else {
			buf := make([]byte, openLen*codeRowBytes)
			if _, err := c.f.ReadAt(buf, off*codeRowBytes); err != nil {
				return err
			}
			for i := range c.tailC {
				code := int32(binary.LittleEndian.Uint32(buf[i*4:]))
				c.tailC[i] = code
				if code >= 0 && c.openHash != nil {
					c.openHash[hashValue(c.dict[code])] = struct{}{}
				}
			}
		}
	}
	// Drop any cached pages of the now tail-served open segment.
	if openSi >= 0 {
		st.mu.Lock()
		for ci := range st.cols {
			if e, ok := st.cache[segKey{ci, openSi}]; ok {
				st.lruUnlink(e)
				delete(st.cache, e.key)
				st.usage -= e.size
			}
		}
		st.mu.Unlock()
	}
	st.openSeg = openSi
	st.appendable = true
	return nil
}

// newTail gives the column a fresh open-segment buffer of length n and
// capacity segSize.
func (c *storeCol) newTail(segSize, n int) {
	if c.numeric {
		c.tailF = make([]float64, n, segSize)
	} else {
		c.tailC = make([]int32, n, segSize)
	}
}

// bloomCol reports whether a column carries Bloom filters:
// foreign keys and full-text columns do.
func (st *Store) bloomCol(c relation.Column) bool {
	if c.FullText {
		return true
	}
	for _, fk := range st.schema.ForeignKeys {
		if fk.Column == c.Name {
			return true
		}
	}
	return false
}

// numericValue reconstructs the stored Value of a numeric cell, matching
// the kind-exact encoding hashValue expects.
func numericValue(kind relation.Kind, f float64) relation.Value {
	if kind == relation.KindInt {
		return relation.Int(int64(f))
	}
	return relation.Float(f)
}

// AppendRows implements relation.AppendableBacking: it widens and
// appends rows that relation.Table.AppendFacts has already validated at
// the tail of every column, maintaining zone maps, Bloom filters,
// dictionaries, and term segment lists incrementally. Safe to call
// concurrently with readers; appenders are serialized.
func (st *Store) AppendRows(rows [][]relation.Value) error {
	st.amu.Lock()
	defer st.amu.Unlock()
	if err := st.ensureAppendableLocked(); err != nil {
		return err
	}
	for i := 0; i < len(rows); {
		st.metaMu.Lock()
		n := st.NumRows()
		openLen := n % st.segSize
		if st.openSeg < 0 {
			// Start a fresh open segment: give every evidence family its
			// (to be overwritten below) open entry.
			st.openSeg = n / st.segSize
			for _, c := range st.cols {
				if c.zones != nil {
					c.zones = append(c.zones, relation.EmptyZone())
				}
				if c.blooms != nil {
					c.blooms = append(c.blooms, bloomFilter{})
				}
				c.zoneAcc = relation.EmptyZone()
				if c.openHash != nil {
					clear(c.openHash)
				}
			}
		}
		take := min(st.segSize-openLen, len(rows)-i)
		for _, row := range rows[i : i+take] {
			for ci, c := range st.cols {
				v := row[ci]
				stored := v
				if c.col.Kind == relation.KindFloat && v.Kind() == relation.KindInt {
					stored = relation.Float(float64(v.IntVal()))
				}
				if c.numeric {
					f := stored.FloatOrNaN()
					c.tailF = append(c.tailF, f)
					c.zoneAcc.Observe(f)
				} else {
					code := int32(-1)
					if !stored.IsNull() {
						var ok bool
						code, ok = c.codeOf[stored]
						if !ok {
							code = int32(len(c.dict))
							c.codeOf[stored] = code
							c.dict = append(c.dict, stored)
							if c.termSeg != nil {
								c.termSeg = append(c.termSeg, nil)
							}
						}
						if c.termSeg != nil {
							segs := c.termSeg[code]
							if len(segs) == 0 || segs[len(segs)-1] != int32(st.openSeg) {
								c.termSeg[code] = append(segs, int32(st.openSeg))
							}
						}
					}
					c.tailC = append(c.tailC, code)
				}
				if c.openHash != nil && !stored.IsNull() {
					c.openHash[hashValue(stored)] = struct{}{}
				}
			}
		}
		// Publish the open segment's refreshed evidence, then the rows.
		openSi := st.openSeg
		for _, c := range st.cols {
			if c.zones != nil {
				c.zones[openSi] = c.zoneAcc
			}
			if c.blooms != nil {
				hashes := make([]uint64, 0, len(c.openHash))
				for h := range c.openHash {
					hashes = append(hashes, h)
				}
				c.blooms[openSi] = newBloom(hashes)
			}
		}
		sealed := openLen+take == st.segSize
		st.metaMu.Unlock()
		st.numRows.Store(int64(n + take))
		st.dirty = true
		i += take
		if sealed {
			if err := st.sealOpenLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealOpenLocked writes the full open segment to the column files and
// retires the tail buffers. Caller holds amu; the file writes happen
// outside metaMu so readers keep resolving the segment from the tail
// until the sealed bytes are in place. The retired buffers are left to
// the readers still holding them; the next segment gets new ones.
func (st *Store) sealOpenLocked() error {
	if err := st.writeTailsLocked(); err != nil {
		return err
	}
	st.metaMu.Lock()
	for _, c := range st.cols {
		c.newTail(st.segSize, 0)
		c.zoneAcc = relation.EmptyZone()
		if c.openHash != nil {
			clear(c.openHash)
		}
	}
	st.openSeg = -1
	st.metaMu.Unlock()
	return nil
}

// writeTailsLocked writes every column's tail buffer to its file at the
// open segment's offset. Caller holds amu.
func (st *Store) writeTailsLocked() error {
	if st.openSeg < 0 {
		return nil
	}
	off := int64(st.openSeg) * int64(st.segSize)
	for _, c := range st.cols {
		if c.numeric {
			buf := make([]byte, len(c.tailF)*floatRowBytes)
			for i, f := range c.tailF {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
			}
			if _, err := c.wf.WriteAt(buf, off*floatRowBytes); err != nil {
				return err
			}
		} else {
			buf := make([]byte, len(c.tailC)*codeRowBytes)
			for i, code := range c.tailC {
				binary.LittleEndian.PutUint32(buf[i*4:], uint32(code))
			}
			if _, err := c.wf.WriteAt(buf, off*codeRowBytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush persists the partial open segment and rewrites the manifest so
// the directory can be reopened with every appended row intact. The
// store remains appendable afterwards.
func (st *Store) Flush() error {
	st.amu.Lock()
	defer st.amu.Unlock()
	if !st.dirty {
		return nil
	}
	if err := st.writeTailsLocked(); err != nil {
		return err
	}
	st.metaMu.RLock()
	m := &manifest{segSize: st.segSize, numRows: st.NumRows()}
	for _, c := range st.cols {
		mc := manifestCol{name: c.col.Name, kind: c.col.Kind, isDict: !c.numeric}
		if !c.numeric {
			mc.dict = append([]relation.Value(nil), c.dict...)
			// len 0 encodes as absent: a value-less column carries no
			// lists yet.
			if len(c.termSeg) > 0 {
				mc.termSegs = make([][]int32, len(c.termSeg))
				for i, segs := range c.termSeg {
					mc.termSegs[i] = append([]int32(nil), segs...)
				}
			}
		}
		if c.zones != nil {
			mc.zones = append([]relation.Zone(nil), c.zones...)
		}
		if c.blooms != nil {
			mc.blooms = append([]bloomFilter(nil), c.blooms...)
		}
		m.cols = append(m.cols, mc)
	}
	st.metaMu.RUnlock()
	if err := os.WriteFile(filepath.Join(st.dir, manifestName), encodeManifest(m), 0o644); err != nil {
		return err
	}
	st.dirty = false
	return nil
}

// OpenBackedTable opens dir as the storage of a backed relation.Table.
// The returned Store is also the table's Backing(); callers keep it to
// set the cache budget and poll paging stats.
func OpenBackedTable(dir string, schema *relation.Schema) (*relation.Table, *Store, error) {
	st, err := OpenStore(dir, schema)
	if err != nil {
		return nil, nil, err
	}
	t, err := relation.NewBackedTable(schema, st)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return t, st, nil
}

// CreateBackedTable writes an empty segment directory for schema under
// dir (created if absent, its segment files replaced) — zero-row column
// files and a manifest carrying no evidence yet — and opens it as a
// backed table. The table fills like a resident one, through
// Table.AppendFacts (relation.BatchAppender for a stream); Store.Flush
// or Close makes the appended rows durable. segSize is the rows per
// segment, a power of two of at least 64; 0 selects
// relation.DefaultSegmentSize.
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
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(colFilePat, ci)), nil, 0o644); err != nil {
			return nil, nil, err
		}
		m.cols = append(m.cols, manifestCol{name: c.Name, kind: c.Kind, isDict: c.Kind != relation.KindInt && c.Kind != relation.KindFloat})
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), encodeManifest(m), 0o644); err != nil {
		return nil, nil, err
	}
	return OpenBackedTable(dir, schema)
}
