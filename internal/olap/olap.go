// Package olap executes aggregation queries over a star/snowflake schema:
// semijoin of keyword-hit dimension rows through join paths to fact rows
// (slicing the sub-dataspace of a star net), measures and aggregation
// functions over fact rows, and group-by along arbitrary dimension
// attributes reached through join paths.
//
// Execution is columnar: kernels (kernel.go) read the measure as one
// segmented float column, a segment at a time, beside dictionary-coded
// attribute columns one to four bytes wide, memoized fact-aligned per
// join path, and fan out across cores above a row threshold with a
// deterministic stripe-order merge. The row-at-a-time reference
// implementations they are checked against live in the package's tests.
// Per-constraint semijoin bitsets are cached in a CLOCK-evicted store so
// star nets sharing hit groups share the semijoin work.
//
// An Executor is safe for concurrent use, counts its scans, column
// builds and segment verdicts on the request's telemetry.Trace in ctx,
// and observes context cancellation on every entry point that scans.
package olap

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kdap/internal/bitset"
	"kdap/internal/cache"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
	"kdap/internal/telemetry"
)

// Measure is a numeric measure over the fact rows. The paper's
// experiments use sales revenue = UnitPrice × Quantity; arbitrary
// user-defined measures are supported per §5's extension note. The
// executor reads every measure as one segmented float column over the
// fact table (NaN where the value is undefined): the constructors below
// supply that column directly, and a hand-built Measure{Name, Eval}
// literal has it derived from Eval, a segment at a time.
type Measure struct {
	Name string
	// Eval evaluates the measure on one boxed fact row.
	Eval func(row []relation.Value) float64
	// column returns the measure over fact's published rows; nil for a
	// hand-built literal.
	column func(fact *relation.Table) relation.FloatReader
}

// reader returns the measure over fact's published rows as one
// segmented float column. It is the one place a measure's form is
// resolved: the kernels read whatever it returns a segment at a time.
func (m Measure) reader(fact *relation.Table) relation.FloatReader {
	if m.column != nil {
		return m.column(fact)
	}
	return evalReader{fact: fact, n: fact.Len(), eval: m.Eval}
}

// evalReader is the segmented form of a hand-built measure: each
// segment is Eval over the segment's rows, computed on fetch through one
// scratch row.
type evalReader struct {
	fact *relation.Table
	n    int
	eval func(row []relation.Value) float64
}

func (r evalReader) Len() int         { return r.n }
func (r evalReader) SegmentSize() int { return r.fact.SegmentSize() }
func (r evalReader) FloatSegment(si int) []float64 {
	lo := si * r.fact.SegmentSize()
	out := make([]float64, min(r.fact.SegmentSize(), r.n-lo))
	var row []relation.Value
	for i := range out {
		row = r.fact.RowInto(row, lo+i)
		out[i] = r.eval(row)
	}
	return out
}

// ColumnMeasure returns a measure that reads a single numeric fact
// column. On a table that never pages its reader is the column itself.
func ColumnMeasure(t *relation.Table, col string) Measure {
	ci := t.Schema().ColumnIndex(col)
	if ci < 0 {
		panic(fmt.Sprintf("olap: fact table %s has no column %q", t.Name(), col))
	}
	return Measure{
		Name:   col,
		Eval:   func(row []relation.Value) float64 { return row[ci].AsFloat() },
		column: func(*relation.Table) relation.FloatReader { return t.FloatReader(col) },
	}
}

// ProductMeasure returns a measure multiplying two numeric fact columns,
// e.g. revenue = UnitPrice × Quantity. While the table holds both
// columns whole (it has sealed no segment) the product is kept as one
// dense column, built on first use and grown under its own mutex by the
// store's growth rule: appended rows are written past the length every
// reader was handed, never over it. Past the first sealed segment it is
// computed per segment on fetch (productReader).
func ProductMeasure(t *relation.Table, name, colA, colB string) Measure {
	a := t.Schema().ColumnIndex(colA)
	b := t.Schema().ColumnIndex(colB)
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("olap: fact table %s lacks %q or %q", t.Name(), colA, colB))
	}
	var mu sync.Mutex
	var prod []float64 // the dense product
	return Measure{
		Name: name,
		Eval: func(row []relation.Value) float64 {
			return row[a].AsFloat() * row[b].AsFloat()
		},
		column: func(*relation.Table) relation.FloatReader {
			mu.Lock()
			defer mu.Unlock()
			ca, cb := t.FloatColumn(colA), t.FloatColumn(colB)
			if ca == nil || cb == nil {
				return productReader{a: t.FloatReader(colA), b: t.FloatReader(colB)}
			}
			if n := min(len(ca), len(cb)); len(prod) < n {
				prod = slices.Grow(prod, n-len(prod))
				for i := len(prod); i < n; i++ {
					prod = append(prod, ca[i]*cb[i])
				}
			}
			return relation.ResidentFloats(prod)
		},
	}
}

// productReader is the segmented form of a product measure on a paged
// table: each segment is computed on fetch from the two factor
// segments. The kernels fetch each segment once per contiguous pass, so
// the recompute cost is one multiply per row — the same work the dense
// build does, paid per scan instead of up front and resident.
type productReader struct {
	a, b relation.FloatReader
}

func (r productReader) Len() int         { return r.a.Len() }
func (r productReader) SegmentSize() int { return r.a.SegmentSize() }
func (r productReader) FloatSegment(si int) []float64 {
	sa, sb := r.a.FloatSegment(si), r.b.FloatSegment(si)
	out := make([]float64, len(sa))
	for i := range out {
		out[i] = sa[i] * sb[i]
	}
	return out
}

// ones is the one segment every count reader serves (sliced short for a
// last, partial segment).
var ones = func() []float64 {
	s := make([]float64, relation.DefaultSegmentSize)
	for i := range s {
		s[i] = 1
	}
	return s
}()

// onesReader is the count measure over n rows.
type onesReader struct{ n int }

func (r onesReader) Len() int         { return r.n }
func (r onesReader) SegmentSize() int { return len(ones) }
func (r onesReader) FloatSegment(si int) []float64 {
	return ones[:min(len(ones), r.n-si*len(ones))]
}

// CountMeasure counts fact rows.
func CountMeasure() Measure {
	return Measure{
		Name:   "count",
		Eval:   func([]relation.Value) float64 { return 1 },
		column: func(fact *relation.Table) relation.FloatReader { return onesReader{fact.Len()} },
	}
}

// RevenueMeasure is the paper's measure over a fact table: sales revenue
// = UnitPrice × OrderQuantity (or × Quantity), falling back to a row
// count when the table lacks UnitPrice or a quantity column.
func RevenueMeasure(fact *relation.Table) Measure {
	sc := fact.Schema()
	if sc.HasColumn("UnitPrice") {
		for _, qty := range []string{"OrderQuantity", "Quantity"} {
			if sc.HasColumn(qty) {
				return ProductMeasure(fact, "SalesRevenue", "UnitPrice", qty)
			}
		}
	}
	return CountMeasure()
}

// Agg selects the aggregation function applied to measure values.
type Agg int

// The supported aggregation functions.
const (
	Sum Agg = iota
	Count
	Avg
	Min
	Max
)

// String returns the SQL-ish name of the aggregation function.
func (a Agg) String() string {
	switch a {
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("AGG(%d)", int(a))
	}
}

type aggState struct {
	sum float64
	n   int
	min float64
	max float64
}

func newAggState() aggState {
	return aggState{min: math.Inf(1), max: math.Inf(-1)}
}

func (s *aggState) add(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.sum += x
	s.n++
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

func (s *aggState) final(a Agg) float64 {
	switch a {
	case Sum:
		return s.sum
	case Count:
		return float64(s.n)
	case Avg:
		if s.n == 0 {
			return math.NaN()
		}
		return s.sum / float64(s.n)
	case Min:
		if s.n == 0 {
			return math.NaN()
		}
		return s.min
	case Max:
		if s.n == 0 {
			return math.NaN()
		}
		return s.max
	default:
		panic("olap: unknown aggregation")
	}
}

// Constraint restricts the sub-dataspace: fact rows must link, through
// Path, to a row of Table whose Attr is one of Values — or, when Range
// is set, whose numeric Attr lies in Range. One constraint per hit
// group, per the paper's star-net semantics (§4.2): dimension hit groups
// slice the subspace, and so does a numeric drill (§5.2.2's ranges); all
// constraints intersect at the fact table. A constraint on one of the
// fact table's own columns has Table the fact table and the empty Path.
type Constraint struct {
	Table  string
	Attr   string
	Values []relation.Value
	Range  *Interval
	Path   schemagraph.JoinPath // from Table to the fact table
}

// Key canonically identifies the constraint: the key of its cached
// fact-row set, and its part of a space's key. Value order does not
// matter.
func (c Constraint) Key() string {
	var body string
	if c.Range != nil {
		body = "range" + c.Range.String()
	} else {
		vals := make([]string, len(c.Values))
		for i, v := range c.Values {
			vals[i] = v.GoString()
		}
		sort.Strings(vals)
		body = strings.Join(vals, "\x01")
	}
	return c.Table + "\x00" + c.Attr + "\x00" + c.Path.Signature() + "\x00" + body
}

// Interval is the numbers from Lo to Hi, each end closed unless marked
// open; an infinite end leaves that side unbounded. NaN (NULL) lies in
// no interval.
type Interval struct {
	Lo, Hi         float64
	LoOpen, HiOpen bool
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool {
	return (x > iv.Lo || !iv.LoOpen && x == iv.Lo) && (x < iv.Hi || !iv.HiOpen && x == iv.Hi)
}

// String renders the interval in bracket notation, "(5,+Inf]".
func (iv Interval) String() string {
	l, r := "[", "]"
	if iv.LoOpen {
		l = "("
	}
	if iv.HiOpen {
		r = ")"
	}
	return l + strconv.FormatFloat(iv.Lo, 'g', -1, 64) + "," + strconv.FormatFloat(iv.Hi, 'g', -1, 64) + r
}

// Executor runs star-net queries against one warehouse. It memoizes
// fact-row→dimension-row mappings and fact-aligned attribute code/float
// columns per join path, and per-constraint semijoin results (as
// bitsets over fact rows), so repeated facet construction and the
// evaluation of many star nets sharing hit groups are cheap. Safe for
// concurrent use; cache hits take only a read lock, so the facet
// scorer's fan-out does not serialize on the memos.
type Executor struct {
	g    *schemagraph.Graph
	fact *relation.Table

	mu        sync.RWMutex
	factMap   map[string]vec[int32] // path signature -> fact row -> dim row (-1 when unlinked)
	attrCode  map[attrColKey]*codeColumn
	attrFloat map[attrColKey]vec[float64]
	// constraintBits caches each constraint's fact-row set; candidate
	// star nets combine a small vocabulary of hit groups, so hit rates
	// are high during differentiation-heavy workloads.
	constraintBits *cache.Clock[string, *bitset.Set]
}

// ResidentBytes is the size of the fact-aligned columns an executor has
// derived and memoized so far, by kind.
type ResidentBytes struct {
	// CodeVectors: dictionary-coded attribute columns, 1, 2 or 4 bytes
	// per fact row each. FactToDim: fact→dimension row mappings, 4 bytes
	// per fact row per join path. AttrFloats: numeric attribute columns,
	// 8 bytes per fact row each.
	CodeVectors int64 `json:"codeVectors"`
	FactToDim   int64 `json:"factToDim"`
	AttrFloats  int64 `json:"attrFloats"`
}

// ResidentBytes sums the executor's memoized columns from their
// capacities and element widths: a vector grown in place holds its
// append slack too (dictionaries belong to the tables and are counted
// there).
func (ex *Executor) ResidentBytes() ResidentBytes {
	var b ResidentBytes
	ex.mu.RLock()
	defer ex.mu.RUnlock()
	for _, cc := range ex.attrCode {
		b.CodeVectors += cc.bytes()
	}
	for _, m := range ex.factMap {
		b.FactToDim += int64(cap(m)) * 4
	}
	for _, f := range ex.attrFloat {
		b.AttrFloats += int64(cap(f)) * 8
	}
	return b
}

// ConstraintCacheStats snapshots the per-constraint semijoin cache.
func (ex *Executor) ConstraintCacheStats() cache.Stats {
	return ex.constraintBits.Stats()
}

// constraintCacheCap bounds the per-constraint cache.
const constraintCacheCap = 512

// NewExecutor creates an executor over the graph's database.
func NewExecutor(g *schemagraph.Graph) *Executor {
	fact := g.DB().Table(g.FactTable())
	if fact == nil {
		panic("olap: graph has no fact table")
	}
	return &Executor{
		g: g, fact: fact,
		factMap:        make(map[string]vec[int32]),
		attrCode:       make(map[attrColKey]*codeColumn),
		attrFloat:      make(map[attrColKey]vec[float64]),
		constraintBits: cache.NewClock[string, *bitset.Set](constraintCacheCap),
	}
}

// Graph returns the schema graph the executor runs against.
func (ex *Executor) Graph() *schemagraph.Graph { return ex.g }

// FactLen returns the number of fact rows (the full dataspace size).
func (ex *Executor) FactLen() int { return ex.fact.Len() }

// MapRowsCtx maps row IDs of path.Source to row IDs of path.Target by
// walking the path's hops; the result is sorted and deduplicated. This is
// the semijoin primitive: dimension rows in, fact rows out. It returns
// ctx.Err() on cancellation. A path that ends at the fact table is
// resolved by the one semijoin into facts (see semijoin); a path between
// dimension tables is walked hop by hop.
func (ex *Executor) MapRowsCtx(ctx context.Context, rows []int, path schemagraph.JoinPath) ([]int, error) {
	if len(path.Hops) == 0 || path.Target() != ex.fact.Name() {
		return ex.walkHops(ctx, rows, path.Source, path.Hops)
	}
	s, err := ex.semijoin(ctx, rows, path, nil, ex.fact.Len())
	if err != nil {
		return nil, err
	}
	return s.ToSlice(), nil
}

// walkHops maps rows of table from across hops between dimension
// tables: each hop resolves the distinct values of its source column
// through the next table's LookupIn. The result is ascending and
// deduplicated.
func (ex *Executor) walkHops(ctx context.Context, rows []int, from string, hops []schemagraph.Hop) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur, curTable := rows, ex.table(from)
	for _, hop := range hops {
		seen := make(map[relation.Value]struct{}, len(cur))
		vals := make([]relation.Value, 0, len(cur))
		for base := 0; base < len(cur); base += cancelCheckRows {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, r := range cur[base:min(base+cancelCheckRows, len(cur))] {
				v := curTable.Value(r, hop.FromCol)
				if _, dup := seen[v]; dup || v.IsNull() {
					continue
				}
				seen[v] = struct{}{}
				vals = append(vals, v)
			}
		}
		curTable = ex.table(hop.ToTable)
		cur = curTable.LookupIn(hop.ToCol, vals)
	}
	return cur, nil
}

// functionalFrom returns the index of the first hop of path's longest
// all-functional suffix: hops whose target holds the foreign key, so
// that walked back from the fact each row references at most one row of
// the hop's source. A snowflake path is functional throughout (0); a
// path that first climbs to a shared table (CUSTOMER → LOC → STORE → …)
// is functional only after the climb. The last hop always counts — it
// is the one into the facts.
func (ex *Executor) functionalFrom(path schemagraph.JoinPath) int {
	i := max(len(path.Hops)-1, 0)
	for ; i > 0; i-- {
		h := path.Hops[i-1]
		fk := relation.ForeignKey{Column: h.ToCol, RefTable: h.FromTable, RefColumn: h.FromCol}
		if !slices.Contains(ex.table(h.ToTable).Schema().ForeignKeys, fk) {
			break
		}
	}
	return i
}

// table resolves a table a path or constraint names.
func (ex *Executor) table(name string) *relation.Table {
	t := ex.g.DB().Table(name)
	if t == nil {
		panic(fmt.Sprintf("olap: path references missing table %q", name))
	}
	return t
}

// constraintSet returns (cached) the bitset of fact rows satisfying one
// constraint. The cache evicts with second-chance/CLOCK so a hot hit
// group survives churn from one-off candidate nets. A cancelled semijoin
// is never cached — partial bitsets must not poison later queries.
//
// A cold constraint and a cached set left behind by a streaming append
// (its universe shorter than the fact table) are the same computation
// from different starting universes: the build scans only the rows the
// set does not cover yet, and the shorter set stays intact for readers
// already holding it. A range on a fact column is a segment scan of the
// column (rangeScan); every other constraint is a semijoin from the rows
// of its table it selects.
func (ex *Executor) constraintSet(ctx context.Context, c Constraint) (*bitset.Set, error) {
	n := ex.fact.Len()
	key := c.Key()
	s, _ := ex.constraintBits.Get(key)
	if s != nil && s.Len() >= n {
		return s, nil
	}
	var ext *bitset.Set
	var err error
	if c.Range != nil && c.Table == ex.fact.Name() {
		ext, err = ex.rangeScan(ctx, c.Attr, *c.Range, s, n)
	} else {
		ext, err = ex.semijoin(ctx, ex.sourceRows(c), c.Path, s, n)
	}
	if err != nil {
		return nil, err
	}
	ex.constraintBits.Put(key, ext)
	return ext, nil
}

// sourceRows returns, ascending, the rows of c.Table the constraint
// selects: those whose Attr is one of Values, or lies in Range.
func (ex *Executor) sourceRows(c Constraint) []int {
	t := ex.table(c.Table)
	if c.Range == nil {
		return t.LookupIn(c.Attr, c.Values)
	}
	rd := t.FloatReader(c.Attr)
	ss := rd.SegmentSize()
	var rows []int
	for si := 0; si*ss < rd.Len(); si++ {
		for i, v := range rd.FloatSegment(si) {
			if c.Range.Contains(v) {
				rows = append(rows, si*ss+i)
			}
		}
	}
	return rows
}

// semijoin is the one semijoin into the facts, for resident and backed
// tables alike: it grows s (nil for none) to the set, over universe n,
// of fact rows that link through path to one of the given rows of
// path.Source. Hops before the path's functional suffix are walked
// forward between dimension tables; the suffix — the whole path in a
// snowflake — is a scan of its fact→dimension mapping, the one every
// group-by along it reads too: fact row f is in iff factToDim(suffix)[f]
// is a hit. Only rows [s.Len(), n) are scanned, assembled a 64-row word
// at a time: ~2 ms per million facts for a cold constraint however many
// rows match, O(appended rows) for an extension.
//
// Going through the mapping fixes the rule for dirty keys: a fact whose
// key matches several dimension rows belongs to the first of them only,
// in a subspace exactly as in a group-by.
func (ex *Executor) semijoin(ctx context.Context, rows []int, path schemagraph.JoinPath, s *bitset.Set, n int) (*bitset.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	suffix := path
	if k := ex.functionalFrom(path); k > 0 {
		var err error
		if rows, err = ex.walkHops(ctx, rows, path.Source, path.Hops[:k]); err != nil {
			return nil, err
		}
		suffix = schemagraph.JoinPath{Source: path.Hops[k].FromTable, Hops: path.Hops[k:]}
	}
	hit := bitset.FromSorted(ex.table(suffix.Source).Len(), rows)
	f2d := ex.factToDim(suffix)
	out := bitset.New(n)
	lo := 0
	if s != nil {
		out.OrWith(s)
		lo = s.Len()
	}
	for ; lo < n; lo += cancelCheckRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out.AddMapped(lo, f2d[lo:min(lo+cancelCheckRows, n)], hit)
	}
	return out, nil
}

// FactRowsCtx returns the fact rows of the sub-dataspace defined by the
// constraints: the intersection over all constraints of the fact rows
// reachable from matching dimension rows. With no constraints it returns
// every fact row (the full dataspace). Per-constraint results are cached
// as bitsets, so nets sharing hit groups share semijoin work.
// Cancellation is checked between constraints, inside each constraint's
// semijoin and between segment runs, returning ctx.Err() instead of
// completing the intersection.
func (ex *Executor) FactRowsCtx(ctx context.Context, constraints []Constraint) ([]int, error) {
	return ex.FactRowsInRange(ctx, constraints, 0, ex.fact.Len())
}

// AggregateCtx applies the measure and aggregation function over fact
// rows. The scan is fused — measure segment read and accumulation in
// one loop — and fans out across GOMAXPROCS workers for large row sets;
// it (and every parallel worker chunk) checks for cancellation before
// every measure segment and returns ctx.Err() instead of finishing the
// scan.
func (ex *Executor) AggregateCtx(ctx context.Context, rows []int, m Measure, agg Agg) (float64, error) {
	telemetry.Count(ctx, telemetry.Aggregates, 1)
	st, err := scanAggregate(ctx, rows, m.reader(ex.fact))
	if err != nil {
		return 0, err
	}
	return st.final(agg), nil
}

// GroupByCtx partitions the given fact rows by the attribute at the far
// end of path (a path from the attribute's table to the fact table) and
// aggregates the measure within each group. The result maps each
// attribute value to its aggregate; fact rows with no linked dimension
// row are dropped.
//
// Execution is columnar: the attribute is read through a memoized
// fact-aligned dictionary code vector and accumulated into a dense
// per-code state slice — no map insert, no boxed Value per row — with
// the chunked parallel kernel engaged for large row sets. The scan (and
// every parallel worker chunk) checks for cancellation before every
// measure segment and returns ctx.Err() instead of finishing.
func (ex *Executor) GroupByCtx(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath, m Measure, agg Agg) (map[relation.Value]float64, error) {
	dimTable := ex.g.DB().Table(path.Source)
	if dimTable.Schema().ColumnIndex(attr) < 0 {
		panic(fmt.Sprintf("olap: %s has no column %q", path.Source, attr))
	}
	tr := telemetry.FromContext(ctx)
	tr.Add(telemetry.GroupBys, 1)
	cc, builds := ex.attrCodes(attr, path)
	tr.Add(telemetry.CodeColumnBuilds, builds)
	states, touched, err := groupScan(ctx, rows, cc, m.reader(ex.fact))
	if err != nil {
		return nil, err
	}
	// Sized to the groups present, not the dictionary: a space keeps its
	// group-bys, and a small subspace touches few of a large domain's
	// values.
	n := 0
	for _, t := range touched {
		if t {
			n++
		}
	}
	out := make(map[relation.Value]float64, n)
	for c := range states {
		if touched[c] {
			out[cc.dict[c]] = states[c].final(agg)
		}
	}
	return out, nil
}

// vec is a derived vector with one element per fact row.
type vec[E any] []E

func (v vec[E]) rows() int { return len(v) }

// join appends tail to v, in place while v's array has room; a cold
// vector publishes tail itself.
func (v vec[E]) join(tail vec[E]) vec[E] {
	if len(v) == 0 {
		return tail
	}
	return append(v, tail...)
}

// derived is a fact-aligned vector the executor memoizes: vec, or a
// codeColumn.
type derived[V any] interface {
	rows() int
	join(tail V) V
}

// grow is the one extension path of the executor's derived vectors, and
// the store's growth rule: a vector is appended past its published
// length or replaced, never rewritten. It returns memo[key] covering at
// least the fact row count observed at call time. When the vector is
// short, tail computes what it lacks outside the lock — the rows from
// cur.rows() to n, or a whole replacement (a cold build, a widened code
// vector) — and join publishes the result under the lock, provided no
// other builder published first; otherwise the call retries against
// that builder's result. So appends into a vector's array happen only
// under the lock and only past every length a reader was handed, and
// readers holding the shorter vector see nothing change. builds counts
// the tails computed.
func grow[K comparable, V derived[V]](ex *Executor, memo map[K]V, key K, tail func(cur V, n int) V) (_ V, builds int) {
	for ; ; builds++ {
		n := ex.fact.Len()
		ex.mu.RLock()
		cur, ok := memo[key]
		ex.mu.RUnlock()
		if ok && cur.rows() >= n {
			return cur, builds
		}
		t := tail(cur, n)
		ex.mu.Lock()
		if memo[key].rows() != cur.rows() {
			ex.mu.Unlock()
			continue // raced with another builder; retry against its result
		}
		next := cur.join(t)
		memo[key] = next
		ex.mu.Unlock()
		return next, builds + 1
	}
}

// factToDim returns, memoized, the functional mapping fact row → dimension
// row for a path from a dimension table to the fact table. Star schemas
// make the fact→dimension direction many-to-one, so each fact row maps to
// at most one dimension row: -1 when a foreign key is NULL or dangling,
// the first matching row when a key is duplicated. Group-bys read it
// for attribute columns and semijoin reads it for subspaces, which is
// why the two agree on dirty keys. Like every derived vector it covers
// the fact row count observed at call time (grow).
func (ex *Executor) factToDim(path schemagraph.JoinPath) []int32 {
	m, _ := grow(ex, ex.factMap, path.Signature(), func(cur vec[int32], n int) vec[int32] {
		return ex.buildF2DRange(path, len(cur), n)
	})
	return m
}

// buildF2DRange computes the fact→dimension mapping for fact rows
// [lo, hi) by walking the reversed path fact → ... → dimension, one hop
// column at a time through the tables' segmented readers.
func (ex *Executor) buildF2DRange(path schemagraph.JoinPath, lo, hi int) []int32 {
	cur := make([]int32, hi-lo)
	for i := range cur {
		cur[i] = int32(lo + i)
	}
	curTable := ex.fact
	for i := len(path.Hops) - 1; i >= 0; i-- {
		hop := path.Hops[i].Reverse() // now oriented away from the fact
		next := ex.table(hop.ToTable)
		factToDimHop(curTable, next, hop.FromCol, hop.ToCol, cur)
		curTable = next
	}
	return cur
}

// factToDimHop resolves one reversed hop in place: rows[f] is a row of
// curTable (or -1) on entry and the row of next it references on
// return. The hop column is read over the span of the rows named
// (readRange) — one column of I/O, never a boxed row — and each distinct
// value resolves to its first matching target row once, through a memo.
func factToDimHop(curTable, next *relation.Table, fromCol, toCol string, rows []int32) {
	c, ok := curTable.Schema().Column(fromCol)
	if !ok {
		panic(fmt.Sprintf("olap: %s has no column %q", curTable.Name(), fromCol))
	}
	firstOf := func(v relation.Value) int32 {
		matches := next.Lookup(toCol, v)
		if len(matches) == 0 {
			return -1
		}
		return int32(matches[0])
	}
	from, to := rowSpan(rows)
	if c.Kind == relation.KindInt || c.Kind == relation.KindFloat {
		rd := curTable.FloatReader(fromCol)
		vals := readRange(rd.FloatSegment, rd.SegmentSize(), from, to)
		memo := make(map[float64]int32)
		for f, r := range rows {
			if r < 0 {
				continue
			}
			fv := vals[int(r)-from]
			if math.IsNaN(fv) {
				rows[f] = -1
				continue
			}
			d, ok := memo[fv]
			if !ok {
				if c.Kind == relation.KindInt {
					d = firstOf(relation.Int(int64(fv)))
				} else {
					d = firstOf(relation.Float(fv))
				}
				memo[fv] = d
			}
			rows[f] = d
		}
		return
	}
	rd := curTable.DictReader(fromCol)
	dict := rd.Dict()
	codes := readRange(rd.CodeSegment, rd.SegmentSize(), from, to)
	memo := make([]int32, len(dict))
	have := make([]bool, len(dict))
	for f, r := range rows {
		if r < 0 {
			continue
		}
		code := codes[int(r)-from]
		if code < 0 {
			rows[f] = -1
			continue
		}
		if !have[code] {
			memo[code] = firstOf(dict[code])
			have[code] = true
		}
		rows[f] = memo[code]
	}
}

// ValueMeasure pairs one fact row's numeric attribute value with its
// measure value; the bucketizer consumes slices of these.
type ValueMeasure struct {
	Value   float64
	Measure float64
}

// NumericSeriesCtx extracts, for each fact row, the numeric value of the
// attribute reached via path together with the row's measure value.
// Rows with NULL, non-numeric, or unlinked attributes are dropped. The
// attribute is read from its memoized fact-aligned float column (NaN
// marks absent), the measure a segment at a time, and cancellation is
// checked before every segment. A large row set is extracted over
// concurrent row-ordered spans whose outputs concatenate to exactly the
// serial series.
func (ex *Executor) NumericSeriesCtx(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath, m Measure) ([]ValueMeasure, error) {
	vals := ex.seriesColumn(ctx, rows, attr, path)
	if len(rows) == 0 {
		return []ValueMeasure{}, nil
	}
	_, sp := telemetry.StartSpan(ctx, "segment_scan")
	defer sp.End()
	rd := m.reader(ex.fact)
	spans := []span{{0, len(rows)}}
	return gather(ctx, spans, len(rows), spanLen, func(out []ValueMeasure, part []span) ([]ValueMeasure, error) {
		err := forStrides(ctx, rd, rows, part, func(stride []int, seg []float64, base int) {
			out = appendPairs(out, vals, stride, seg, base)
		})
		return out, err
	})
}

// FoldNumericSeriesCtx streams the series NumericSeriesCtx would return
// through fold without materialising it: fold sees the pairs in row
// order, at most one measure segment's worth at a time, in a buffer
// that is reused between calls and must not be retained. A consumer
// that adds into per-bucket sums in the order it is handed pairs gets
// the bytes it would get from the materialised series, while the scan's
// working set is one segment instead of 16 bytes per row of a roll-up
// space.
func (ex *Executor) FoldNumericSeriesCtx(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath, m Measure, fold func([]ValueMeasure)) error {
	vals := ex.seriesColumn(ctx, rows, attr, path)
	if len(rows) == 0 {
		return nil
	}
	_, sp := telemetry.StartSpan(ctx, "segment_scan")
	defer sp.End()
	noteScan(ctx, false, 0, len(rows))
	rd := m.reader(ex.fact)
	buf := make([]ValueMeasure, 0, min(len(rows), rd.SegmentSize()))
	return forStrides(ctx, rd, rows, []span{{0, len(rows)}}, func(stride []int, seg []float64, base int) {
		fold(appendPairs(buf, vals, stride, seg, base))
	})
}

// seriesColumn resolves what a numeric-series scan reads besides the
// measure: the fact-aligned attribute column (nil for no rows).
func (ex *Executor) seriesColumn(ctx context.Context, rows []int, attr string, path schemagraph.JoinPath) []float64 {
	if ex.g.DB().Table(path.Source).Schema().ColumnIndex(attr) < 0 {
		panic(fmt.Sprintf("olap: %s has no column %q", path.Source, attr))
	}
	if len(rows) == 0 {
		return nil
	}
	vals, builds := ex.attrFloats(attr, path)
	telemetry.Count(ctx, telemetry.FloatColumnBuilds, builds)
	return vals
}

// appendPairs appends to out the (attribute value, measure) pairs of
// rows, one stride of a measure segment starting at row base, dropping
// rows whose attribute is absent (NaN).
func appendPairs(out []ValueMeasure, vals []float64, rows []int, seg []float64, base int) []ValueMeasure {
	for _, r := range rows {
		v := vals[r]
		if math.IsNaN(v) {
			continue
		}
		out = append(out, ValueMeasure{Value: v, Measure: seg[r-base]})
	}
	return out
}

// DimValues projects the distinct values of attr over the dimension rows
// reached from the given rows of path.Source via an inner
// (fact-avoiding) path; the roll-up executor uses it to generalize hit
// values to their hierarchy parents. It returns ctx.Err() when the hop
// walk is cancelled.
func (ex *Executor) DimValues(ctx context.Context, rows []int, path schemagraph.JoinPath, attr string) ([]relation.Value, error) {
	target := ex.g.DB().Table(path.Target())
	mapped, err := ex.MapRowsCtx(ctx, rows, path)
	if err != nil {
		return nil, err
	}
	seen := make(map[relation.Value]struct{})
	var out []relation.Value
	for _, r := range mapped {
		v := target.Value(r, attr)
		if v.IsNull() {
			continue
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

// intersectSorted intersects two sorted, deduplicated int slices.
func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
