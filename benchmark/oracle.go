package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// emptyTopNet lists the Table-3 queries whose top-1 star net selects an
// empty sub-dataspace of AW_ONLINE: their explore is an expected 422,
// not a failure. The oracle asserts the set so that a change which
// turns one of them into an answer (or another query into an error)
// cannot pass as "statuses still match".
var emptyTopNet = []string{
	"Chainring Bikes",
	"Germany US Dollar 2000",
	"Seattle Saddles 1245550139",
	"Sydney California Promotion",
}

// oracle holds, per workload query, the answers a serial pass over a
// freshly built server gave: what every later reply is checked against.
type oracle struct {
	queries []wlQuery
	query   []answer // POST /api/query
	explore []answer // POST /api/explore of the top-1 interpretation
	// relevantAt1 counts queries whose top-1 interpretation is one the
	// paper's judges accept (workload.Query.Relevant).
	relevantAt1 int
	seconds     float64
}

// oraclePass runs every workload query and the explore of its top-1 net
// once, serially, over c. Only a transport failure is an error: a 4xx is
// an answer and is recorded as one.
func oraclePass(ctx context.Context, c *conn, queries []wlQuery) (*oracle, error) {
	start := time.Now()
	o := &oracle{queries: queries, query: make([]answer, len(queries)), explore: make([]answer, len(queries))}
	for i, q := range queries {
		res, err := c.api.Query(ctx, dbName, q.Text)
		if o.query[i], err = c.result(err); err != nil {
			return nil, fmt.Errorf("oracle query %q: %w", q.Text, err)
		}
		if res == nil || len(res.Interpretations) == 0 {
			return nil, fmt.Errorf("oracle query %q: no interpretation (status %d)", q.Text, o.query[i].status)
		}
		if q.Relevant(res.Interpretations[0].Signature) {
			o.relevantAt1++
		}
		_, err = c.api.Explore(ctx, res.Session, 1, exploreDefaults)
		if o.explore[i], err = c.result(err); err != nil {
			return nil, fmt.Errorf("oracle explore %q: %w", q.Text, err)
		}
	}
	o.seconds = time.Since(start).Seconds()
	return o, nil
}

// expectedErrors names the queries whose explore the oracle recorded as
// a non-200 answer, sorted.
func (o *oracle) expectedErrors() []string {
	var out []string
	for i, a := range o.explore {
		if a.status != 200 {
			out = append(out, o.queries[i].Text)
		}
	}
	sort.Strings(out)
	return out
}

// assertPaper checks the paper's own results before any timing:
// precision@1 is 50/50 and, on the paper-sized warehouse, exactly the
// four known empty-subspace queries answer with an error.
func (o *oracle) assertPaper(paperSized bool) error {
	if o.relevantAt1 != len(o.queries) {
		return fmt.Errorf("oracle: precision@1 is %d/%d, the paper's Figure 4 says %d/%d",
			o.relevantAt1, len(o.queries), len(o.queries), len(o.queries))
	}
	if got := o.expectedErrors(); paperSized && fmt.Sprint(got) != fmt.Sprint(emptyTopNet) {
		return fmt.Errorf("oracle: explores answering with an error are %q, want %q", got, emptyTopNet)
	}
	return nil
}

// diff counts the answers of other that differ from o's.
func (o *oracle) diff(other *oracle) (mismatches []string) {
	for i := range o.queries {
		if o.query[i] != other.query[i] {
			mismatches = append(mismatches, fmt.Sprintf("query %q: %v vs %v", o.queries[i].Text, o.query[i], other.query[i]))
		}
		if o.explore[i] != other.explore[i] {
			mismatches = append(mismatches, fmt.Sprintf("explore %q: %v vs %v", o.queries[i].Text, o.explore[i], other.explore[i]))
		}
	}
	return mismatches
}

// drillKey identifies one drilled explore: the query, and the facet
// instance drilled into. The server is deterministic, so equal keys must
// give equal answers whenever and on whichever connection they run.
type drillKey struct {
	query int
	attr  string // table.attr[role]
	label string
}

// drillBook is the in-run self-consistency check for drilled explores,
// which no serial oracle pass can enumerate ahead of time: the first
// answer seen under a key is the expectation for every later one.
type drillBook struct {
	mu    sync.Mutex
	first map[drillKey]answer
	keys  []drillKey // in first-seen order, for sampling
}

func newDrillBook() *drillBook { return &drillBook{first: make(map[drillKey]answer)} }

// check records a under k, or reports whether it equals the first answer
// recorded there.
func (b *drillBook) check(k drillKey, a answer) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	want, seen := b.first[k]
	if !seen {
		b.first[k] = a
		b.keys = append(b.keys, k)
		return true
	}
	return want == a
}

// sample returns up to n keys, chosen by seed from the keys sorted (so
// that the choice does not depend on which client got where first).
func (b *drillBook) sample(seed int64, n int) []drillKey {
	b.mu.Lock()
	keys := append([]drillKey(nil), b.keys...)
	b.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		a, c := keys[i], keys[j]
		if a.query != c.query {
			return a.query < c.query
		}
		if a.attr != c.attr {
			return a.attr < c.attr
		}
		return a.label < c.label
	})
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}
