package olap

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// The columnar execution kernels: tight loops over pre-extracted code
// vectors (one, two or four bytes per row — see codeColumn) and
// []float64 measure columns, with a striped parallel variant engaged for
// large row sets. They are pure execution strategy — every kernel
// produces results identical to the row-at-a-time reference path (the
// package tests' groupByRef), modulo the float summation order of the
// stripe merge,
// which is canonical: a row set at or above
// the parallel threshold is always split into exactly kernelStripes
// contiguous stripes whose partials merge in stripe-index order,
// whether the stripes run on one goroutine or sixteen. The stripe grid
// is a function of the row count alone — never of GOMAXPROCS or of how
// many workers happened to be scheduled — so aggregate bytes are
// identical across core counts. The threshold itself is fixed for the
// same reason: moving it moves row sets between the serial and
// striped summation orders, and so changes answer bytes.
//
// Every kernel is cancellable: it walks its rows one segment of the
// measure at a time (forStrides) and consults ctx.Err() before each
// segment fetch, so a cancelled context stops a scan within one segment
// rather than after the full dataspace. When the context carries no
// cancellation (ctx.Done() == nil, e.g. context.Background()) the check
// short-circuits on a nil channel compare.

// kernelStripes is the fixed fan-out of a striped scan. It doubles as
// the worker-count cap: past a point extra workers only shred the
// cache, and a fixed stripe count is what keeps the merge order — and
// therefore the output bytes — independent of the machine.
const kernelStripes = 16

// parallelRowThreshold is the row count at and above which the fused
// scan+aggregate kernels and the row-set producers go striped. Below it
// the stripe states and goroutine handoff outweigh the scan. It fixes
// the summation order of every aggregate, so it is not tunable: a
// variable only so tests can force fan-out on small tables.
var parallelRowThreshold = 8192

// cancelCheckRows is the stride between ctx.Err() checks in the walks
// that read no measure (the hop walk and the semijoin). At ~10ns/row a
// stride is a few tens of microseconds of work, so cancellation latency
// stays far below any request deadline while the check amortizes to
// well under the benchmark noise floor.
const cancelCheckRows = 8192

// span is one stripe's half-open index range into a row set.
type span struct{ lo, hi int }

// stripeSpans splits n rows into exactly kernelStripes contiguous
// spans, the leading n%kernelStripes spans one row longer. The layout
// depends on n alone.
func stripeSpans(n int) []span {
	spans := make([]span, kernelStripes)
	base, rem := n/kernelStripes, n%kernelStripes
	lo := 0
	for i := range spans {
		hi := lo + base
		if i < rem {
			hi++
		}
		spans[i] = span{lo, hi}
		lo = hi
	}
	return spans
}

// scanWorkers returns how many goroutines a striped scan should use: up
// to one per stripe, never more than GOMAXPROCS (1 means the stripes
// run inline, in order, on the calling goroutine).
func scanWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > kernelStripes {
		w = kernelStripes
	}
	if w < 1 {
		w = 1
	}
	return w
}

// noteScan is the one emission site of a kernel pass on the request in
// ctx: its schedule — parallel over stripes, or serial — and the rows it
// visits.
func noteScan(ctx context.Context, parallel bool, stripes, rows int) {
	tr := telemetry.FromContext(ctx)
	if parallel {
		tr.Add(telemetry.ParallelScans, 1)
		tr.Add(telemetry.KernelStripes, stripes)
	} else {
		tr.Add(telemetry.SerialScans, 1)
	}
	tr.Add(telemetry.RowsScanned, rows)
}

// mergeInto folds src into dst. All five aggregation functions merge
// associatively over (sum, n, min, max), which is what makes the
// striped scan correct.
func (s *aggState) mergeInto(src *aggState) {
	s.sum += src.sum
	s.n += src.n
	if src.min < s.min {
		s.min = src.min
	}
	if src.max > s.max {
		s.max = src.max
	}
}

// runStripes executes one body per stripe index, inline when workers is
// 1 and over a worker pool pulling stripes from an atomic counter
// otherwise. The body for stripe i must be independent of every other
// stripe; callers merge the per-stripe partials in index order.
func runStripes(nstripes, workers int, body func(i int)) {
	if workers <= 1 {
		for i := 0; i < nstripes; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nstripes {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

// groupScan accumulates the measure over rows into one aggState per
// dictionary code, returning the dense state slice and a touched mask
// (a group is "touched" when any row carries its code, even if every
// measure value was NaN — matching the reference path, which creates a
// group state before evaluating the measure). It dispatches on the
// column's width to the one kernel, instantiated per code type.
func groupScan(ctx context.Context, rows []int, cc *codeColumn, rd relation.FloatReader) ([]aggState, []bool, error) {
	switch cc.width {
	case 1:
		return groupScanCodes(ctx, rows, cc.u8, len(cc.dict), rd)
	case 2:
		return groupScanCodes(ctx, rows, cc.u16, len(cc.dict), rd)
	default:
		return groupScanCodes(ctx, rows, cc.u32, len(cc.dict), rd)
	}
}

func groupScanCodes[C code](ctx context.Context, rows []int, codes []C, ngroups int, rd relation.FloatReader) ([]aggState, []bool, error) {
	if len(rows) < parallelRowThreshold {
		noteScan(ctx, false, 0, len(rows))
		return groupScanChunk(ctx, rows, codes, ngroups, rd)
	}
	spans := stripeSpans(len(rows))
	workers := scanWorkers()
	noteScan(ctx, workers > 1, len(spans), len(rows))
	states := make([][]aggState, len(spans))
	touched := make([][]bool, len(spans))
	errs := make([]error, len(spans))
	runStripes(len(spans), workers, func(i int) {
		sp := spans[i]
		states[i], touched[i], errs[i] = groupScanChunk(ctx, rows[sp.lo:sp.hi], codes, ngroups, rd)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	// Merge partials in stripe order so the result is deterministic —
	// the same bytes no matter how many workers ran the stripes.
	out, outTouched := states[0], touched[0]
	for w := 1; w < len(spans); w++ {
		for g := range out {
			if touched[w][g] {
				outTouched[g] = true
				out[g].mergeInto(&states[w][g])
			}
		}
	}
	return out, outTouched, nil
}

// groupScanChunk is the sequential fused scan+aggregate kernel over one
// stripe of rows. Per row it streams one code (1, 2 or 4 bytes) and one
// float64 of the measure segment; the all-ones code marks a row with no
// group.
func groupScanChunk[C code](ctx context.Context, rows []int, codes []C, ngroups int, rd relation.FloatReader) ([]aggState, []bool, error) {
	null := ^C(0)
	states := make([]aggState, ngroups)
	for g := range states {
		states[g] = newAggState()
	}
	touched := make([]bool, ngroups)
	err := forStrides(ctx, rd, rows, []span{{0, len(rows)}}, func(stride []int, seg []float64, base int) {
		for _, r := range stride {
			c := codes[r]
			if c == null {
				continue
			}
			touched[c] = true
			states[c].add(seg[r-base])
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return states, touched, nil
}

// scanAggregate is the fused single-group scan behind Aggregate.
func scanAggregate(ctx context.Context, rows []int, rd relation.FloatReader) (aggState, error) {
	if len(rows) < parallelRowThreshold {
		noteScan(ctx, false, 0, len(rows))
		return scanAggregateChunk(ctx, rows, rd)
	}
	spans := stripeSpans(len(rows))
	workers := scanWorkers()
	noteScan(ctx, workers > 1, len(spans), len(rows))
	partial := make([]aggState, len(spans))
	errs := make([]error, len(spans))
	runStripes(len(spans), workers, func(i int) {
		sp := spans[i]
		partial[i], errs[i] = scanAggregateChunk(ctx, rows[sp.lo:sp.hi], rd)
	})
	for _, err := range errs {
		if err != nil {
			return aggState{}, err
		}
	}
	st := partial[0]
	for w := 1; w < len(partial); w++ {
		st.mergeInto(&partial[w])
	}
	return st, nil
}

func scanAggregateChunk(ctx context.Context, rows []int, rd relation.FloatReader) (aggState, error) {
	st := newAggState()
	err := forStrides(ctx, rd, rows, []span{{0, len(rows)}}, func(stride []int, seg []float64, base int) {
		s := st // a local the loop can keep in registers
		for _, r := range stride {
			s.add(seg[r-base])
		}
		st = s
	})
	return st, err
}

// attrColKey identifies a fact-aligned attribute column in the
// executor's memo: the join path (by signature) plus the attribute.
type attrColKey struct {
	path string
	attr string
}

// code is the element type of a code vector.
type code interface{ ~uint8 | ~uint16 | ~uint32 }

// codeColumn is a fact-aligned dictionary-encoded attribute column,
// stored at the narrowest width that holds its dictionary: the vector
// matching width (1, 2 or 4 bytes per fact row) is the live one, and
// vec[factRow] indexes dict, or is all-ones at that width when the fact
// row has no linked dimension row or the attribute value is NULL. A group-by gathers one code per row of its row set, so the
// element width is what it streams from memory: most attributes have
// under 255 distinct values and cost a byte per row.
type codeColumn struct {
	width int
	u8    []uint8
	u16   []uint16
	u32   []uint32
	dict  []relation.Value
}

// codeWidth returns the bytes per code for a dictionary of ndict values:
// the codes 0..ndict-1 and the all-ones NULL code must be distinct.
func codeWidth(ndict int) int {
	switch {
	case ndict <= math.MaxUint8:
		return 1
	case ndict <= math.MaxUint16:
		return 2
	default:
		return 4
	}
}

// rows returns the number of fact rows the column covers.
func (cc *codeColumn) rows() int {
	if cc == nil {
		return 0
	}
	return len(cc.u8) + len(cc.u16) + len(cc.u32)
}

// at returns the code of fact row r, -1 for none.
func (cc *codeColumn) at(r int) int32 {
	switch cc.width {
	case 1:
		if c := cc.u8[r]; c != math.MaxUint8 {
			return int32(c)
		}
	case 2:
		if c := cc.u16[r]; c != math.MaxUint16 {
			return int32(c)
		}
	default:
		if c := cc.u32[r]; c != math.MaxUint32 {
			return int32(c)
		}
	}
	return -1
}

// grown returns a column of n rows at the width dict needs whose first
// cc.rows() codes are cc's — copied when the width is unchanged, widened
// (NULL to NULL) when dict outgrew it — and whose remaining codes come
// from composing f2d with src (sourceCodes). cc is left intact for the
// readers holding it. Only cc's live vector is non-nil, so of the copy
// and widen calls below exactly the one that reads it does any work.
func (cc *codeColumn) grown(n int, f2d []int32, src sourceRange, dict []relation.Value) *codeColumn {
	lo := cc.rows()
	out := &codeColumn{width: codeWidth(len(dict)), dict: dict}
	switch out.width {
	case 1:
		out.u8 = make([]uint8, n)
		if cc != nil {
			copy(out.u8, cc.u8)
		}
		encodeCodes(out.u8[lo:], f2d[lo:n], src)
	case 2:
		out.u16 = make([]uint16, n)
		if cc != nil {
			copy(out.u16, cc.u16)
			widenCodes(out.u16, cc.u8)
		}
		encodeCodes(out.u16[lo:], f2d[lo:n], src)
	default:
		out.u32 = make([]uint32, n)
		if cc != nil {
			copy(out.u32, cc.u32)
			widenCodes(out.u32, cc.u16)
			widenCodes(out.u32, cc.u8)
		}
		encodeCodes(out.u32[lo:], f2d[lo:n], src)
	}
	return out
}

// encodeCodes fills dst[i] with the code of the source row f2d[i].
func encodeCodes[C code](dst []C, f2d []int32, src sourceRange) {
	for i, d := range f2d {
		dst[i] = ^C(0)
		if d >= 0 {
			if c := src.codes[int(d)-src.from]; c >= 0 {
				dst[i] = C(c)
			}
		}
	}
}

// widenCodes copies src into the front of dst at dst's wider type.
func widenCodes[D, C code](dst []D, src []C) {
	for i, c := range src {
		if c == ^C(0) {
			dst[i] = ^D(0)
		} else {
			dst[i] = D(c)
		}
	}
}

// attrCodes returns, memoized, the fact-aligned code column for the
// attribute at the far end of path: the composition of factToDim with
// the attribute's codes (sourceCodes). This is what turns GroupBy into a
// scan over small integer codes. The column always covers the fact row
// count observed at call time: a memo left short by a streaming append
// is extended over just the appended rows (copy-on-grow, at the
// column's width), so kernels never index past a code vector with a row
// set derived from a newer snapshot. Only a fact-table attribute's
// dictionary can grow with an append; when it outgrows the width the
// extension widens the whole vector. builds is how many times this call
// materialized the column, for a caller with a request to count.
func (ex *Executor) attrCodes(attr string, path schemagraph.JoinPath) (_ *codeColumn, builds int) {
	key := attrColKey{path.Signature(), attr}
	for ; ; builds++ {
		n := ex.fact.Len()
		ex.mu.RLock()
		cc := ex.attrCode[key]
		ex.mu.RUnlock()
		if cc != nil && cc.rows() >= n {
			return cc, builds
		}
		var dict []relation.Value
		if cc != nil {
			dict = cc.dict
		}
		f2d := ex.factToDim(path) // covers ≥ n
		src, dict := sourceCodes(ex.table(path.Source), attr, f2d[cc.rows():n], dict)
		next := cc.grown(n, f2d, src, dict)
		ex.mu.Lock()
		if ex.attrCode[key] != cc {
			ex.mu.Unlock()
			continue // raced with another builder; retry against its result
		}
		ex.attrCode[key] = next
		ex.mu.Unlock()
		return next, builds + 1
	}
}

// sourceRange holds codes for the rows [from, from+len(codes)) of a
// source table.
type sourceRange struct {
	codes []int32
	from  int
}

// sourceCodes reads attr of src over the span of rows f2d names as
// codes into a dictionary that extends prior, the one the codes already
// handed out index. A dictionary column brings its own; a numeric
// column's is built in the same scan, its values in first-seen order.
func sourceCodes(src *relation.Table, attr string, f2d []int32, prior []relation.Value) (sourceRange, []relation.Value) {
	from, to := rowSpan(f2d)
	c, _ := src.Schema().Column(attr)
	if c.Kind != relation.KindInt && c.Kind != relation.KindFloat {
		rd := src.DictReader(attr)
		return sourceRange{readRange(rd.CodeSegment, rd.SegmentSize(), from, to), from}, rd.Dict()
	}
	rd := src.FloatReader(attr)
	floats := readRange(rd.FloatSegment, rd.SegmentSize(), from, to)
	// The copy keeps concurrent builders from appending into one array.
	dict := slices.Clip(prior)
	codeOf := make(map[float64]int32, len(dict))
	for code, v := range dict {
		codeOf[v.AsFloat()] = int32(code)
	}
	codes := make([]int32, len(floats))
	for i, f := range floats {
		if math.IsNaN(f) {
			codes[i] = -1
			continue
		}
		code, ok := codeOf[f]
		if !ok {
			code = int32(len(dict))
			codeOf[f] = code
			v := relation.Float(f)
			if c.Kind == relation.KindInt {
				v = relation.Int(int64(f))
			}
			dict = append(dict, v)
		}
		codes[i] = code
	}
	return sourceRange{codes, from}, dict
}

// rowSpan returns the smallest row range [from, to) holding every row
// f2d names.
func rowSpan(f2d []int32) (from, to int) {
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, d := range f2d {
		if d >= 0 {
			lo, hi = min(lo, d), max(hi, d)
		}
	}
	if hi < 0 {
		return 0, 0
	}
	return int(lo), int(hi) + 1
}

// readRange reads rows [from, to) of a segmented column, one segment
// fetch at a time.
func readRange[T any](segment func(si int) []T, segSize, from, to int) []T {
	out := make([]T, 0, to-from)
	for si := from / segSize; si*segSize < to; si++ {
		seg := segment(si)
		out = append(out, seg[max(from-si*segSize, 0):min(to-si*segSize, len(seg))]...)
	}
	return out
}

// attrFloats returns, memoized, the fact-aligned numeric column for the
// attribute at the far end of path: NaN where the fact row is unlinked
// or the attribute value is NULL or non-numeric. Coverage-complete like
// attrCodes: always at least the fact row count observed at call time,
// with builds counted the same way.
func (ex *Executor) attrFloats(attr string, path schemagraph.JoinPath) (_ []float64, builds int) {
	key := attrColKey{path.Signature(), attr}
	for ; ; builds++ {
		n := ex.fact.Len()
		ex.mu.RLock()
		fc := ex.attrFloat[key]
		ex.mu.RUnlock()
		if fc != nil && len(fc) >= n {
			return fc, builds
		}
		f2d := ex.factToDim(path) // covers ≥ n
		lo := len(fc)
		src := ex.table(path.Source)
		var vals []float64
		from, to := rowSpan(f2d[lo:n])
		if c, _ := src.Schema().Column(attr); c.Kind == relation.KindInt || c.Kind == relation.KindFloat {
			rd := src.FloatReader(attr)
			vals = readRange(rd.FloatSegment, rd.SegmentSize(), from, to)
		}
		tail := make([]float64, n-lo)
		for i := range tail {
			if d := int(f2d[lo+i]); d < 0 || vals == nil {
				tail[i] = math.NaN()
			} else {
				tail[i] = vals[d-from]
			}
		}
		ex.mu.Lock()
		prev := ex.attrFloat[key]
		if len(prev) != lo {
			ex.mu.Unlock()
			continue // raced with another builder; retry against its result
		}
		merged := append(prev[:lo:lo], tail...)
		ex.attrFloat[key] = merged
		ex.mu.Unlock()
		return merged, builds + 1
	}
}
