package olap

import (
	"context"
	"math"
	"sort"

	"kdap/internal/bitset"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// The row-space planner. The fact table's segment (relation.Table
// SegmentSize rows — a storage page on a backed table, a fixed 8192-row
// stride on a resident one) is the only physical unit of the fact-row
// space. One planner decides, for a row range and the evidence a scan
// declares, which segments can hold a qualifying row; the four exact
// row-set producers — constraint intersection, the fact-column numeric
// filter, the dimension-attribute numeric filter, numeric series — scan
// only the surviving runs.
//
// Pruning applies to exact row-set computations alone: a segment is
// skipped when *no row in it* can qualify (a zone misses a declared
// bound, or a constraint bitset has no member in its rows), and a large
// scan fans out over row-ordered spans whose outputs concatenate in
// span order. Row IDs are exact, so neither the skipping nor the split
// can change a byte of the result. The float kernels (groupScan,
// scanAggregate) deliberately keep their own stripe grid: float addition
// is not associative, so the planner bounds what is scanned, never how
// partial sums merge.

// Bound is a closed-interval restriction [Lo, Hi] on one numeric fact
// column, the declarative form of a numeric drill predicate. Callers
// derive a conservative superset of the predicate's accepting set
// ("Price>500" becomes [500, +Inf]) and MUST still apply the row-level
// predicate: a bound only licenses skipping segments.
type Bound struct {
	Col    string
	Lo, Hi float64
}

// Bounds for predicates that restrict only one side.
var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// zoneCheck reports whether segment si may hold a value the scan
// accepts; false is proof it cannot.
type zoneCheck func(si int) bool

// factZone is the zone evidence of one declared bound on a fact column,
// answered by the table for resident and backed storage alike.
func (ex *Executor) factZone(b Bound) zoneCheck {
	return func(si int) bool {
		overlaps, has := ex.fact.SegmentZoneOverlaps(b.Col, si, b.Lo, b.Hi)
		return !has || overlaps
	}
}

// planRuns is the planner: over fact rows [lo, hi) it consults every
// zone check (a few float compares) and then every constraint bitset
// (a word-parallel probe of the segment's rows), and returns the
// surviving segments as row runs — adjacent survivors coalesced, the
// first and last clipped to the range. The verdict is counted here and
// nowhere else, on the request's trace.
func (ex *Executor) planRuns(ctx context.Context, lo, hi int, zones []zoneCheck, bits []*bitset.Set) []span {
	ss := ex.fact.SegmentSize()
	var runs []span
	scanned, skippedZone, skippedBits := 0, 0, 0
segments:
	for si := lo / ss; si*ss < hi; si++ {
		sLo, sHi := max(si*ss, lo), min((si+1)*ss, hi)
		for _, mayHold := range zones {
			if !mayHold(si) {
				skippedZone++
				continue segments
			}
		}
		for _, s := range bits {
			if !s.AnyInRange(sLo, sHi) {
				skippedBits++
				continue segments
			}
		}
		scanned++
		if n := len(runs); n > 0 && runs[n-1].hi == sLo {
			runs[n-1].hi = sHi
		} else {
			runs = append(runs, span{sLo, sHi})
		}
	}
	tr := telemetry.FromContext(ctx)
	tr.Add(telemetry.SegmentsScanned, scanned)
	tr.Add(telemetry.SegmentsSkippedZone, skippedZone)
	tr.Add(telemetry.SegmentsSkippedBits, skippedBits)
	return runs
}

// rowSpans maps each run to the index span of the sorted row set that
// falls inside it. Rows in skipped segments are dropped here.
func rowSpans(rows []int, runs []span) (spans []span, total int) {
	cur := 0
	for _, r := range runs {
		lo := cur + sort.SearchInts(rows[cur:], r.lo)
		hi := lo + sort.SearchInts(rows[lo:], r.hi)
		if lo < hi {
			spans = append(spans, span{lo, hi})
			total += hi - lo
		}
		cur = hi
	}
	return spans, total
}

// spanLen is the total length of spans.
func spanLen(spans []span) int {
	n := 0
	for _, sp := range spans {
		n += sp.hi - sp.lo
	}
	return n
}

// forStrides is the one walk of every row-set kernel. It hands body the
// rows of spans in order, cut at the boundaries of rd's segments: each
// piece comes with its segment seg and the segment's first row base, so
// body reads row r's value as seg[r-base]. A segment is fetched once per
// piece, and cancellation is checked before every fetch.
func forStrides(ctx context.Context, rd relation.FloatReader, rows []int, spans []span, body func(stride []int, seg []float64, base int)) error {
	done := ctx.Done()
	ss := rd.SegmentSize()
	for _, ix := range spans {
		for lo := ix.lo; lo < ix.hi; {
			if done != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			si := rows[lo] / ss
			// A segment holds at most ss of the (distinct) rows.
			hi := lo + sort.SearchInts(rows[lo:min(lo+ss, ix.hi)], (si+1)*ss)
			body(rows[lo:hi], rd.FloatSegment(si), si*ss)
			lo = hi
		}
	}
	return nil
}

// gather runs one exact row-set scan over spans, where rows is the
// output size that decides the schedule (fanOut's): body runs over the
// spans whole, or over their stripes concurrently. Either way the
// output is one buffer: bound gives an upper bound on what body can
// append for a part, each part appends into its own region, and the
// regions are closed up in part order — the serial result, element for
// element, with no second copy when the bounds are tight. body must not
// depend on how the spans are cut.
func gather[T any](ctx context.Context, spans []span, rows int, bound func(part []span) int, body func(dst []T, part []span) ([]T, error)) ([]T, error) {
	var offs []int
	var buf []T
	outs, err := fanOut(ctx, spans, rows, func(parts [][]span) {
		offs = make([]int, len(parts)+1)
		for g, part := range parts {
			offs[g+1] = offs[g] + bound(part)
		}
		buf = make([]T, offs[len(parts)])
	}, func(g int, part []span) ([]T, error) {
		return body(buf[offs[g]:offs[g]:offs[g+1]], part)
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, out := range outs {
		n += copy(buf[n:], out)
	}
	if 2*n < len(buf) {
		// A loose bound (a selective filter): do not pin the big buffer
		// behind a small result.
		return append(make([]T, 0, n), buf[:n]...), nil
	}
	return buf[:n], nil
}

// FactRowsInRange returns, ascending, the fact rows in [lo, hi) that
// satisfy every constraint (every row of the range when constraints is
// empty), skipping segments whose zone maps miss a declared bound or in
// which some constraint has no member. It is the one constraint-
// intersection body: the whole sub-dataspace and an ingest tail are
// both just ranges. With bounds the caller MUST
// re-apply the row-level predicates they were derived from. hi is
// clipped to the fact length observed on entry; per-constraint bitsets
// are coverage-complete to at least that length.
func (ex *Executor) FactRowsInRange(ctx context.Context, constraints []Constraint, bounds []Bound, lo, hi int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lo, hi = max(lo, 0), min(hi, ex.fact.Len())
	if lo >= hi {
		return nil, nil
	}
	sets := make([]*bitset.Set, len(constraints))
	for i, c := range constraints {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s, err := ex.constraintSet(ctx, c)
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	_, sp := telemetry.StartSpan(ctx, "segment_scan")
	defer sp.End()
	zones := make([]zoneCheck, len(bounds))
	for i, b := range bounds {
		zones[i] = ex.factZone(b)
	}
	count := func(part []span) int {
		n := 0
		for _, r := range part {
			if len(sets) == 0 {
				n += r.hi - r.lo
			} else {
				n += bitset.IntersectRangeCount(r.lo, r.hi, sets)
			}
		}
		return n
	}
	runs := ex.planRuns(ctx, lo, hi, zones, sets)
	total := count(runs)
	if total == 0 {
		return nil, nil
	}
	return gather(ctx, runs, total, count, func(out []int, part []span) ([]int, error) {
		for _, r := range part {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if len(sets) == 0 {
				for row := r.lo; row < r.hi; row++ {
					out = append(out, row)
				}
				continue
			}
			out = bitset.IntersectRangeAppend(out, r.lo, r.hi, sets)
		}
		return out, nil
	})
}

// FilterFactNumericCtx keeps the fact rows whose numeric fact column
// satisfies pred, where [lo, hi] is a conservative closed-interval
// superset of pred's accepting set (the caller derives it from the
// predicate's operator). Segments whose zone misses [lo, hi] are dropped
// wholesale — on a backed table their pages are never read — and the
// rest are walked a segment at a time; a resident column is just
// another reader. NULL (NaN) never matches. rows must be sorted
// ascending.
func (ex *Executor) FilterFactNumericCtx(ctx context.Context, rows []int, col string, lo, hi float64, pred func(float64) bool) ([]int, error) {
	return ex.filterNumeric(ctx, rows, ex.fact.FloatReader(col), ex.factZone(Bound{Col: col, Lo: lo, Hi: hi}), pred)
}

// FilterRowsNumericBoundCtx keeps the fact rows whose numeric attribute
// at the far end of path satisfies pred; rows with NULL or unlinked
// attributes are dropped. pred only accepts values in the declared
// interval [lo, hi] (±Inf for an opaque predicate), which licenses
// skipping segments whose zone over the fact-aligned attribute column
// misses the interval. Those zones are derived lazily per (path, attr)
// and memoized alongside the column itself. Cancellation is checked
// before every segment.
func (ex *Executor) FilterRowsNumericBoundCtx(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath, lo, hi float64, pred func(float64) bool) ([]int, error) {
	if ex.g.DB().Table(path.Source).Schema().ColumnIndex(attr) < 0 {
		panic("olap: " + path.Source + " has no column " + attr)
	}
	vals, builds := ex.attrFloats(attr, path)
	telemetry.Count(ctx, telemetry.FloatColumnBuilds, builds)
	return ex.filterNumeric(ctx, rows, relation.ResidentFloats(vals), ex.attrZone(attr, path, vals, lo, hi), pred)
}

// filterNumeric is the one numeric-filter body: plan the row set's
// range against the column's zones, then keep the rows pred accepts.
func (ex *Executor) filterNumeric(ctx context.Context, rows []int, rd relation.FloatReader, zone zoneCheck, pred func(float64) bool) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	_, sp := telemetry.StartSpan(ctx, "segment_scan")
	defer sp.End()
	runs := ex.planRuns(ctx, rows[0], rows[len(rows)-1]+1, []zoneCheck{zone}, nil)
	spans, total := rowSpans(rows, runs)
	out, err := gather(ctx, spans, total, spanLen, func(out []int, part []span) ([]int, error) {
		err := forStrides(ctx, rd, rows, part, func(stride []int, seg []float64, base int) {
			for _, r := range stride {
				if v := seg[r-base]; !math.IsNaN(v) && pred(v) {
					out = append(out, r)
				}
			}
		})
		return out, err
	})
	if len(out) == 0 {
		return nil, err
	}
	return out, err
}

// attrZones is one fact-aligned attribute column's per-segment zones
// plus the row count they cover.
type attrZones struct {
	zones []relation.Zone
	upTo  int
}

// attrZone returns the zone evidence of [lo, hi] over a fact-aligned
// attribute column. The per-segment zones are memoized per (path, attr)
// and cover at least len(vals) rows: an entry left short by a streaming
// append is replaced by one widened over just the appended rows, since
// the extension rewrites the last segment's zone.
func (ex *Executor) attrZone(attr string, path schemagraph.JoinPath, vals []float64, lo, hi float64) zoneCheck {
	key := attrColKey{path.Signature(), attr}
	ex.mu.RLock()
	e := ex.attrZones[key]
	ex.mu.RUnlock()
	if e.upTo < len(vals) {
		ex.mu.Lock()
		if e = ex.attrZones[key]; e.upTo < len(vals) {
			e = attrZones{relation.ExtendZones(e.zones, e.upTo, vals, ex.fact.SegmentSize()), len(vals)}
			ex.attrZones[key] = e
		}
		ex.mu.Unlock()
	}
	zones := e.zones
	return func(si int) bool { return si >= len(zones) || zones[si].Overlaps(lo, hi) }
}
