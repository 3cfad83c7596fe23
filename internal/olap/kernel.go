package olap

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry/profile"
)

// The columnar execution kernels: tight loops over pre-extracted
// []int32 code vectors and []float64 measure columns, with a striped
// parallel variant engaged for large row sets. They are pure execution
// strategy — every kernel produces results identical to the row-at-a-
// time reference path (see GroupByRef), modulo the float summation
// order of the stripe merge, which is canonical: a row set at or above
// the parallel threshold is always split into exactly kernelStripes
// contiguous stripes whose partials merge in stripe-index order,
// whether the stripes run on one goroutine or sixteen. The stripe grid
// is a function of the row count alone — never of GOMAXPROCS or of how
// many workers happened to be scheduled — so aggregate bytes are
// identical across core counts, and threshold calibration (see tune.go)
// only moves the serial/striped boundary, never how partials merge.
//
// Every kernel is cancellable: the scan loops are blocked into
// cancelCheckRows-row strides and consult ctx.Err() between strides,
// so a cancelled context stops a scan within one stride rather than
// after the full dataspace. When the context carries no cancellation
// (ctx.Done() == nil, e.g. context.Background()) the check short-
// circuits on a nil channel compare and the inner loops are the same
// tight code as before.

// kernelStripes is the fixed fan-out of a striped scan. It doubles as
// the worker-count cap: past a point extra workers only shred the
// cache, and a fixed stripe count is what keeps the merge order — and
// therefore the output bytes — independent of the machine.
const kernelStripes = 16

// defaultParallelRowThreshold is the factory row count above which the
// fused scan+aggregate kernels go striped. Below it the stripe states
// and goroutine handoff outweigh the scan. Overridable per process by
// SetParallelRowThreshold (the calibration pass measures the real
// crossover for the running GOMAXPROCS).
const defaultParallelRowThreshold = 8192

// parallelThreshold holds the live threshold behind an atomic so a
// load-time calibration pass may adjust it while tests (or a warm
// server) run scans concurrently.
var parallelThreshold atomic.Int64

func init() { parallelThreshold.Store(defaultParallelRowThreshold) }

// ParallelRowThreshold returns the row count at which scans go striped.
func ParallelRowThreshold() int { return int(parallelThreshold.Load()) }

// SetParallelRowThreshold overrides the striped-scan threshold for the
// whole process (it is machine tuning, like GOMAXPROCS, not a per-
// executor property). n <= 0 restores the factory default. Changing the
// threshold moves row sets between the serial and striped accumulation
// orders, so results for a given row set are byte-stable only for a
// fixed threshold — calibrate at startup, before serving queries.
func SetParallelRowThreshold(n int) {
	if n <= 0 {
		n = defaultParallelRowThreshold
	}
	parallelThreshold.Store(int64(n))
}

// cancelCheckRows is the stride between ctx.Err() checks inside the
// scan kernels. At ~10ns/row a stride is a few tens of microseconds of
// work, so cancellation latency stays far below any request deadline
// while the check amortizes to well under the benchmark noise floor.
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

// measureVec resolves the measure's fact-aligned column, or nil when
// the measure only supports row-at-a-time evaluation (hand-built
// Measure literals) or reads a backed table (Seg path).
func measureVec(m Measure) []float64 {
	if m.Vec == nil {
		return nil
	}
	return m.Vec()
}

// measureCursor returns a fresh segment cursor for a measure without a
// dense vector, or nil when the measure has no segmented form. Cursors
// are not safe for concurrent use — the kernels take one per chunk.
func measureCursor(m Measure) *relation.FloatCursor {
	if m.Seg == nil {
		return nil
	}
	return relation.NewFloatCursor(m.Seg())
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
// group state before evaluating the measure).
func (ex *Executor) groupScan(ctx context.Context, rows []int, codes []int32, ngroups int, m Measure) ([]aggState, []bool, error) {
	if len(rows) < ParallelRowThreshold() {
		ex.stats.serialScans.Add(1)
		profile.FromContext(ctx).AddKernelScan(false, 0, len(rows))
		return ex.groupScanChunk(ctx, rows, codes, ngroups, m)
	}
	spans := stripeSpans(len(rows))
	workers := scanWorkers()
	if workers == 1 {
		ex.stats.serialScans.Add(1)
		profile.FromContext(ctx).AddKernelScan(false, 0, len(rows))
	} else {
		ex.stats.parallelScans.Add(1)
		ex.stats.kernelChunks.Add(int64(len(spans)))
		profile.FromContext(ctx).AddKernelScan(true, len(spans), len(rows))
	}
	states := make([][]aggState, len(spans))
	touched := make([][]bool, len(spans))
	errs := make([]error, len(spans))
	runStripes(len(spans), workers, func(i int) {
		sp := spans[i]
		states[i], touched[i], errs[i] = ex.groupScanChunk(ctx, rows[sp.lo:sp.hi], codes, ngroups, m)
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
// stripe of rows, checking for cancellation every cancelCheckRows rows.
func (ex *Executor) groupScanChunk(ctx context.Context, rows []int, codes []int32, ngroups int, m Measure) ([]aggState, []bool, error) {
	states := make([]aggState, ngroups)
	for g := range states {
		states[g] = newAggState()
	}
	touched := make([]bool, ngroups)
	done := ctx.Done()
	vec := measureVec(m)
	var cur *relation.FloatCursor
	if vec == nil && !m.constOne {
		cur = measureCursor(m)
	}
	var row []relation.Value // scratch for row-at-a-time measures
	for base := 0; base < len(rows); base += cancelCheckRows {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		end := min(base+cancelCheckRows, len(rows))
		switch {
		case vec != nil:
			for _, r := range rows[base:end] {
				c := codes[r]
				if c < 0 {
					continue
				}
				touched[c] = true
				states[c].add(vec[r])
			}
		case m.constOne:
			for _, r := range rows[base:end] {
				c := codes[r]
				if c < 0 {
					continue
				}
				touched[c] = true
				states[c].add(1)
			}
		case cur != nil:
			for _, r := range rows[base:end] {
				c := codes[r]
				if c < 0 {
					continue
				}
				touched[c] = true
				states[c].add(cur.At(r))
			}
		default:
			for _, r := range rows[base:end] {
				c := codes[r]
				if c < 0 {
					continue
				}
				touched[c] = true
				row = ex.fact.RowInto(row, r)
				states[c].add(m.Eval(row))
			}
		}
	}
	return states, touched, nil
}

// scanAggregate is the fused single-group scan behind Aggregate.
func (ex *Executor) scanAggregate(ctx context.Context, rows []int, m Measure) (aggState, error) {
	if len(rows) < ParallelRowThreshold() {
		ex.stats.serialScans.Add(1)
		profile.FromContext(ctx).AddKernelScan(false, 0, len(rows))
		return ex.scanAggregateChunk(ctx, rows, m)
	}
	spans := stripeSpans(len(rows))
	workers := scanWorkers()
	if workers == 1 {
		ex.stats.serialScans.Add(1)
		profile.FromContext(ctx).AddKernelScan(false, 0, len(rows))
	} else {
		ex.stats.parallelScans.Add(1)
		ex.stats.kernelChunks.Add(int64(len(spans)))
		profile.FromContext(ctx).AddKernelScan(true, len(spans), len(rows))
	}
	partial := make([]aggState, len(spans))
	errs := make([]error, len(spans))
	runStripes(len(spans), workers, func(i int) {
		sp := spans[i]
		partial[i], errs[i] = ex.scanAggregateChunk(ctx, rows[sp.lo:sp.hi], m)
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

func (ex *Executor) scanAggregateChunk(ctx context.Context, rows []int, m Measure) (aggState, error) {
	st := newAggState()
	done := ctx.Done()
	vec := measureVec(m)
	var cur *relation.FloatCursor
	if vec == nil && !m.constOne {
		cur = measureCursor(m)
	}
	var row []relation.Value // scratch for row-at-a-time measures
	for base := 0; base < len(rows); base += cancelCheckRows {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return aggState{}, err
			}
		}
		end := min(base+cancelCheckRows, len(rows))
		switch {
		case vec != nil:
			for _, r := range rows[base:end] {
				st.add(vec[r])
			}
		case m.constOne:
			for range rows[base:end] {
				st.add(1)
			}
		case cur != nil:
			for _, r := range rows[base:end] {
				st.add(cur.At(r))
			}
		default:
			for _, r := range rows[base:end] {
				row = ex.fact.RowInto(row, r)
				st.add(m.Eval(row))
			}
		}
	}
	return st, nil
}

// attrColKey identifies a fact-aligned attribute column in the
// executor's memo: the join path (by signature) plus the attribute.
type attrColKey struct {
	path string
	attr string
}

// codeColumn is a fact-aligned dictionary-encoded attribute column:
// codes[factRow] indexes dict, or is -1 when the fact row has no linked
// dimension row or the attribute value is NULL.
type codeColumn struct {
	codes []int32
	dict  []relation.Value
}

// attrCodes returns, memoized, the fact-aligned code vector for the
// attribute at the far end of path: the composition of factToDim with
// the dimension table's dictionary-encoded column. This is what turns
// GroupBy into a scan over int32 codes. The vector always covers the
// fact row count observed at call time: a memo left short by a
// streaming append is extended over just the appended rows
// (copy-on-grow), so kernels never index past a code vector with a row
// set derived from a newer snapshot.
func (ex *Executor) attrCodes(attr string, path schemagraph.JoinPath) ([]int32, []relation.Value) {
	key := attrColKey{path.Signature(), attr}
	for {
		n := ex.fact.Len()
		ex.mu.RLock()
		cc := ex.attrCode[key]
		ex.mu.RUnlock()
		if cc != nil && len(cc.codes) >= n {
			return cc.codes, cc.dict
		}
		ex.stats.codeVecBuilds.Add(1)
		dimTable := ex.g.DB().Table(path.Source)
		dimCodes, dict := dimTable.DictColumn(attr)
		f2d := ex.factToDim(path) // covers ≥ n
		lo := 0
		if cc != nil {
			lo = len(cc.codes)
		}
		tail := make([]int32, n-lo)
		for i := range tail {
			if d := f2d[lo+i]; d < 0 {
				tail[i] = -1
			} else {
				tail[i] = dimCodes[d]
			}
		}
		ex.mu.Lock()
		prev := ex.attrCode[key]
		if (prev == nil) != (cc == nil) || (prev != nil && len(prev.codes) != lo) {
			ex.mu.Unlock()
			continue // raced with another builder; retry against its result
		}
		var merged []int32
		if cc != nil {
			merged = append(cc.codes[:lo:lo], tail...)
		} else {
			merged = tail
		}
		cc = &codeColumn{codes: merged, dict: dict}
		ex.attrCode[key] = cc
		ex.mu.Unlock()
		return cc.codes, cc.dict
	}
}

// attrFloats returns, memoized, the fact-aligned numeric column for the
// attribute at the far end of path: NaN where the fact row is unlinked
// or the attribute value is NULL or non-numeric. Coverage-complete like
// attrCodes: always at least the fact row count observed at call time.
func (ex *Executor) attrFloats(attr string, path schemagraph.JoinPath) []float64 {
	key := attrColKey{path.Signature(), attr}
	for {
		n := ex.fact.Len()
		ex.mu.RLock()
		fc := ex.attrFloat[key]
		ex.mu.RUnlock()
		if fc != nil && len(fc) >= n {
			return fc
		}
		ex.stats.floatColBuilds.Add(1)
		dimTable := ex.g.DB().Table(path.Source)
		dimFloats := dimTable.FloatColumn(attr)
		f2d := ex.factToDim(path) // covers ≥ n
		lo := len(fc)
		tail := make([]float64, n-lo)
		for i := range tail {
			if d := f2d[lo+i]; d < 0 {
				tail[i] = math.NaN()
			} else {
				tail[i] = dimFloats[d]
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
		return merged
	}
}
