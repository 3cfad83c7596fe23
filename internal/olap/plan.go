package olap

import (
	"context"
	"sort"

	"kdap/internal/bitset"
	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

// The row-space planner. The fact table's segment (relation.Table
// SegmentSize rows — a storage page on a backed table, a fixed 8192-row
// stride on a resident one) is the only physical unit of the fact-row
// space. The planner decides, for a row range and the constraint
// bitsets of a scan, which segments can hold a qualifying row; the two
// exact row-set producers — constraint intersection and numeric series
// — scan only what survives.
//
// Zone maps are consulted in one place: where a range constraint on a
// fact column builds its bitset (rangeScan), a segment whose zone misses
// the interval is never read. After that a numeric drill is a bitset
// like any other, and a segment is skipped here when some constraint
// has no member in its rows. A large scan fans out over row-ordered
// spans whose outputs concatenate in span order. Row IDs are exact, so
// neither the skipping nor the split can change a byte of the result.
// The float kernels (groupScan, scanAggregate) deliberately keep their
// own stripe grid: float addition is not associative, so the planner
// bounds what is scanned, never how partial sums merge.

// planRuns is the planner: over fact rows [lo, hi) it probes every
// constraint bitset (word-parallel, over the segment's rows) and
// returns the surviving segments as row runs — adjacent survivors
// coalesced, the first and last clipped to the range. The verdict is
// counted here, on the request's trace.
func (ex *Executor) planRuns(ctx context.Context, lo, hi int, bits []*bitset.Set) []span {
	ss := ex.fact.SegmentSize()
	var runs []span
	scanned, skipped := 0, 0
segments:
	for si := lo / ss; si*ss < hi; si++ {
		sLo, sHi := max(si*ss, lo), min((si+1)*ss, hi)
		for _, s := range bits {
			if !s.AnyInRange(sLo, sHi) {
				skipped++
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
	tr.Add(telemetry.SegmentsSkippedBits, skipped)
	return runs
}

// rangeScan grows s (nil for none) to the set, over universe n, of fact
// rows whose numeric column col lies in iv. Only rows [s.Len(), n) are
// read, a segment at a time; a segment whose zone misses the interval
// is skipped unread — on a backed table it is never paged in — and
// counted as SegmentsSkippedZone. NULL (NaN) lies in no interval.
func (ex *Executor) rangeScan(ctx context.Context, col string, iv Interval, s *bitset.Set, n int) (*bitset.Set, error) {
	rd := ex.fact.FloatReader(col) // read after n was observed: covers it
	ss := rd.SegmentSize()
	out := bitset.New(n)
	lo := 0
	if s != nil {
		out.OrWith(s)
		lo = s.Len()
	}
	skipped := 0
	for si := lo / ss; si*ss < n; si++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if overlaps, has := ex.fact.SegmentZoneOverlaps(col, si, iv.Lo, iv.Hi); has && !overlaps {
			skipped++
			continue
		}
		base := si * ss
		seg := rd.FloatSegment(si)
		for r := max(lo, base); r < min(n, base+ss); r++ {
			if iv.Contains(seg[r-base]) {
				out.Add(r)
			}
		}
	}
	telemetry.Count(ctx, telemetry.SegmentsSkippedZone, skipped)
	return out, nil
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
// empty), skipping segments in which some constraint has no member. It
// is the one constraint-intersection body: the whole sub-dataspace and
// an ingest tail are both just ranges, and a numeric drill is one more
// constraint. hi is clipped to the fact length observed on entry;
// per-constraint bitsets are coverage-complete to at least that length.
func (ex *Executor) FactRowsInRange(ctx context.Context, constraints []Constraint, lo, hi int) ([]int, error) {
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
	runs := ex.planRuns(ctx, lo, hi, sets)
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
