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

// stripes cuts the concatenation of spans into exactly kernelStripes
// order-preserving groups, the leading total%kernelStripes groups one
// row longer. Over one row set, spans {0, n}, the grid depends on n
// alone. spans is left as it was: the groups are fresh spans.
func stripes(spans []span) [][]span {
	total := spanLen(spans)
	base, rem := total/kernelStripes, total%kernelStripes
	groups := make([][]span, kernelStripes)
	next := 0
	var sp span // what is left of the span being cut
	for g := range groups {
		room := base
		if g < rem {
			room++
		}
		for room > 0 {
			for sp.lo == sp.hi {
				sp, next = spans[next], next+1
			}
			take := min(sp.hi-sp.lo, room)
			groups[g] = append(groups[g], span{sp.lo, sp.lo + take})
			sp.lo += take
			room -= take
		}
	}
	return groups
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

// fanOut is the one fan-out of a scan over spans that visits rows rows.
// Below parallelRowThreshold body runs once, inline, over spans whole;
// at or above it once per group of stripes(spans), on up to scanWorkers
// goroutines. plan, when not nil, sees the parts before any body runs.
// fanOut notes the scan on ctx and returns body's results in part
// order, or the first error in part order.
func fanOut[R any](ctx context.Context, spans []span, rows int, plan func(parts [][]span), body func(g int, part []span) (R, error)) ([]R, error) {
	parts, workers := [][]span{spans}, 1
	if rows >= parallelRowThreshold {
		parts, workers = stripes(spans), scanWorkers()
	}
	noteScan(ctx, workers > 1, len(parts), rows)
	if plan != nil {
		plan(parts)
	}
	outs := make([]R, len(parts))
	errs := make([]error, len(parts))
	runStripes(len(parts), workers, func(g int) {
		outs[g], errs[g] = body(g, parts[g])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
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
	type partial struct {
		states  []aggState
		touched []bool
	}
	parts, err := fanOut(ctx, []span{{0, len(rows)}}, len(rows), nil, func(_ int, part []span) (partial, error) {
		states, touched, err := groupScanChunk(ctx, rows, part, codes, ngroups, rd)
		return partial{states, touched}, err
	})
	if err != nil {
		return nil, nil, err
	}
	// Merge partials in stripe order so the result is deterministic —
	// the same bytes no matter how many workers ran the stripes.
	out, outTouched := parts[0].states, parts[0].touched
	for _, p := range parts[1:] {
		for g := range out {
			if p.touched[g] {
				outTouched[g] = true
				out[g].mergeInto(&p.states[g])
			}
		}
	}
	return out, outTouched, nil
}

// groupScanChunk is the sequential fused scan+aggregate kernel over one
// stripe, part, of rows. Per row it streams one code (1, 2 or 4 bytes)
// and one float64 of the measure segment; the all-ones code marks a row
// with no group.
func groupScanChunk[C code](ctx context.Context, rows []int, part []span, codes []C, ngroups int, rd relation.FloatReader) ([]aggState, []bool, error) {
	null := ^C(0)
	states := make([]aggState, ngroups)
	for g := range states {
		states[g] = newAggState()
	}
	touched := make([]bool, ngroups)
	err := forStrides(ctx, rd, rows, part, func(stride []int, seg []float64, base int) {
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
	partial, err := fanOut(ctx, []span{{0, len(rows)}}, len(rows), nil, func(_ int, part []span) (aggState, error) {
		return scanAggregateChunk(ctx, rows, part, rd)
	})
	if err != nil {
		return aggState{}, err
	}
	st := partial[0]
	for w := 1; w < len(partial); w++ {
		st.mergeInto(&partial[w])
	}
	return st, nil
}

func scanAggregateChunk(ctx context.Context, rows []int, part []span, rd relation.FloatReader) (aggState, error) {
	st := newAggState()
	err := forStrides(ctx, rd, rows, part, func(stride []int, seg []float64, base int) {
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

// grown returns the codes of rows [cc.rows(), n) at the width dict
// needs, composed from f2d and src (sourceCodes), for join to append to
// cc. When dict has outgrown cc's width the result is instead the whole
// column: cc's codes widened, NULL to NULL, then the new rows. cc is
// only read.
func (cc *codeColumn) grown(n int, f2d []int32, src sourceRange, dict []relation.Value) *codeColumn {
	lo, from := cc.rows(), cc.rows()
	out := &codeColumn{width: codeWidth(len(dict)), dict: dict}
	widen := cc != nil && cc.width != out.width
	if widen {
		from = 0
	}
	switch out.width {
	case 1:
		out.u8 = make([]uint8, n-from)
		encodeCodes(out.u8[lo-from:], f2d[lo:n], src)
	case 2:
		out.u16 = make([]uint16, n-from)
		if widen {
			widenCodes(out.u16, cc.u8)
		}
		encodeCodes(out.u16[lo-from:], f2d[lo:n], src)
	default:
		out.u32 = make([]uint32, n-from)
		if widen {
			widenCodes(out.u32, cc.u16)
			widenCodes(out.u32, cc.u8)
		}
		encodeCodes(out.u32[lo-from:], f2d[lo:n], src)
	}
	return out
}

// join publishes grown's result: a tail at cc's width is appended to
// cc's live vector, in place while its array has room, and a cold build
// or a widening replaces cc.
func (cc *codeColumn) join(tail *codeColumn) *codeColumn {
	if cc == nil || cc.width != tail.width {
		return tail
	}
	return &codeColumn{
		width: cc.width,
		u8:    vec[uint8](cc.u8).join(tail.u8),
		u16:   vec[uint16](cc.u16).join(tail.u16),
		u32:   vec[uint32](cc.u32).join(tail.u32),
		dict:  tail.dict,
	}
}

// bytes is the memory the column's live vector holds.
func (cc *codeColumn) bytes() int64 {
	return int64(cap(cc.u8) + 2*cap(cc.u16) + 4*cap(cc.u32))
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
// count observed at call time (grow): kernels never index past a code
// vector with a row set derived from a newer snapshot. Only a
// fact-table attribute's dictionary can grow with an append; when it
// outgrows the width the extension widens the whole vector. builds is
// how many times this call materialized the column, for a caller with a
// request to count.
func (ex *Executor) attrCodes(attr string, path schemagraph.JoinPath) (_ *codeColumn, builds int) {
	return grow(ex, ex.attrCode, attrColKey{path.Signature(), attr}, func(cc *codeColumn, n int) *codeColumn {
		var dict []relation.Value
		if cc != nil {
			dict = cc.dict
		}
		f2d := ex.factToDim(path) // covers ≥ n
		src, dict := sourceCodes(ex.table(path.Source), attr, f2d[cc.rows():n], dict)
		return cc.grown(n, f2d, src, dict)
	})
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
