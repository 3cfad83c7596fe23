package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// opKind is one HTTP operation type; timings are kept per kind.
type opKind int

const (
	opQuery   opKind = iota // POST /api/query (differentiate)
	opExplore               // POST /api/explore, top-level or drilled
	opDrill                 // POST /api/drill
	opIngest                // POST /api/ingest
	numOps
)

var opNames = [numOps]string{"query", "explore", "drill", "ingest"}

// op is one finished HTTP operation as the session runner reports it.
type op struct {
	kind       opKind
	start, end time.Time
	ok         bool
	why        string // when !ok: what was wrong, for the failure log
	// What the operation was about, for the traced replay's mirror calls.
	drilled bool         // explore of a drilled net
	attr    *apiAttr     // drill: the facet attribute …
	inst    *apiInstance // … and the instance drilled into
}

// checker holds what a session's answers are checked against.
type checker struct {
	w    workload
	orc  *oracle
	book *drillBook
}

// checkExplore validates a top-level explore answer. Under ingest the
// facts change beneath the readers, so the body is only checked after the
// window (the parity pass); the status may go from "empty sub-dataspace"
// to an answer, never the other way.
func (ck *checker) checkExplore(q int, a answer) (bool, string) {
	want := ck.orc.explore[q]
	if ck.w.ingest {
		if a.status == want.status || (a.status == 200 && want.status == 422) {
			return true, ""
		}
		return false, fmt.Sprintf("explore %q: status %d, oracle %d", ck.orc.queries[q].Text, a.status, want.status)
	}
	if a != want {
		return false, fmt.Sprintf("explore %q: %v, oracle %v", ck.orc.queries[q].Text, a, want)
	}
	return true, ""
}

// facetChoice picks, by the session's random number, one of the
// explore answer's facet instances in response order. Instances whose
// aggregate is zero are passed over: they are shown for contrast with
// the roll-up space, hold no fact of this sub-dataspace, and nobody
// drills into an empty facet.
func facetChoice(f *apiFacets, r uint64) (*apiAttr, *apiInstance) {
	type choice struct {
		attr *apiAttr
		inst *apiInstance
	}
	var choices []choice
	for di := range f.Dimensions {
		for ai := range f.Dimensions[di].Attributes {
			a := &f.Dimensions[di].Attributes[ai]
			for ii := range a.Instances {
				if a.Instances[ii].Aggregate != 0 {
					choices = append(choices, choice{a, &a.Instances[ii]})
				}
			}
		}
	}
	if len(choices) == 0 {
		return nil, nil
	}
	c := choices[r%uint64(len(choices))]
	return c.attr, c.inst
}

// runSession plays one analyst session over c: query → explore(top-1),
// and with w.drill → drill(seeded instance) → explore(drilled). Each
// step waits for the one before it, as a person does. Every operation is
// reported to emit; a failed or expected-error step ends the session.
// proceed is asked before each operation after the first.
func runSession(ctx context.Context, c *conn, s session, ck *checker, proceed func() bool, emit func(op)) {
	o := op{kind: opQuery, start: time.Now()}
	text := ck.orc.queries[s.query].Text
	res, err := c.api.Query(ctx, dbName, text)
	ans, err := c.result(err)
	o.end = time.Now()
	switch {
	case err != nil:
		o.why = fmt.Sprintf("query %q: %v", text, err)
	case ans != ck.orc.query[s.query]:
		o.why = fmt.Sprintf("query %q: %v, oracle %v", text, ans, ck.orc.query[s.query])
	default:
		o.ok = true
	}
	emit(o)
	if !o.ok || res == nil || !proceed() {
		return
	}

	o = op{kind: opExplore, start: time.Now()}
	facets, err := c.api.Explore(ctx, res.Session, 1, exploreDefaults)
	ans, err = c.result(err)
	o.end = time.Now()
	if err != nil {
		o.why = fmt.Sprintf("explore %q: %v", text, err)
	} else {
		o.ok, o.why = ck.checkExplore(s.query, ans)
	}
	emit(o)
	if !o.ok || !ck.w.drill || facets == nil || !proceed() {
		return
	}

	attr, inst := facetChoice(facets, s.drill)
	if attr == nil {
		return
	}
	key := drillKey{query: s.query, attr: fmt.Sprintf("%s.%s[%s]", attr.Table, attr.Attr, attr.Role), label: inst.Label}
	o = op{kind: opDrill, attr: attr, inst: inst, start: time.Now()}
	var drilled string
	if attr.Numeric {
		drilled, err = c.api.DrillRange(ctx, res.Session, 1, *attr, inst.Lo, inst.Hi)
	} else {
		drilled, err = c.api.Drill(ctx, res.Session, 1, *attr, inst.Label)
	}
	ans, err = c.result(err)
	o.end = time.Now()
	switch {
	case err != nil:
		o.why = fmt.Sprintf("drill %v: %v", key, err)
	case ans.status != 200:
		o.why = fmt.Sprintf("drill %v: status %d", key, ans.status)
	default:
		o.ok = true
	}
	emit(o)
	if !o.ok || !proceed() {
		return
	}

	o = op{kind: opExplore, drilled: true, attr: attr, inst: inst, start: time.Now()}
	_, err = c.api.Explore(ctx, drilled, 1, exploreDefaults)
	ans, err = c.result(err)
	o.end = time.Now()
	switch {
	case err != nil:
		o.why = fmt.Sprintf("explore drilled %v: %v", key, err)
	case ans.status != 200:
		o.why = fmt.Sprintf("explore drilled %v: status %d", key, ans.status)
	case !ck.book.check(key, ans):
		o.why = fmt.Sprintf("explore drilled %v: %v differs from the first answer under this key", key, ans)
	default:
		o.ok = true
	}
	emit(o)
}

// ingestBatch is one pre-encoded /api/ingest body and what its ack must
// say.
type ingestBatch struct {
	body  []byte
	lo    int // the batch is rows [lo, lo+rows) of the stream it was cut from
	start int // fact row the batch must land at
	rows  int
}

// encodeBatches cuts rows into batches of size rows and encodes them;
// the first lands at fact row start.
func encodeBatches(rows [][]factValue, start, size int) []ingestBatch {
	var out []ingestBatch
	for lo := 0; lo < len(rows); lo += size {
		hi := lo + size
		if hi > len(rows) {
			hi = len(rows)
		}
		b := make([]byte, 0, (hi-lo)*64)
		b = append(b, `{"db":"`+dbName+`","rows":[`...)
		for i, r := range rows[lo:hi] {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFactJSON(b, r)
		}
		b = append(b, "]}"...)
		out = append(out, ingestBatch{body: b, lo: lo, start: start + lo, rows: hi - lo})
	}
	return out
}

// sendBatch posts one batch and checks the ack: accepted, landed where
// the stream says it must, and acked rows equal the fact length.
func sendBatch(ctx context.Context, c *conn, b ingestBatch) (bool, string) {
	ans, body, err := c.postRaw(ctx, "/api/ingest", b.body)
	if err != nil {
		return false, fmt.Sprintf("ingest @%d: %v", b.start, err)
	}
	var ack struct {
		Start    int `json:"start"`
		Rows     int `json:"rows"`
		FactRows int `json:"factRows"`
	}
	if ans.status != 200 {
		return false, fmt.Sprintf("ingest @%d: status %d: %s", b.start, ans.status, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return false, fmt.Sprintf("ingest @%d: ack: %v", b.start, err)
	}
	if ack.Start != b.start || ack.Rows != b.rows || ack.FactRows != b.start+b.rows {
		return false, fmt.Sprintf("ingest @%d: acked start %d rows %d factRows %d, want %d/%d/%d",
			b.start, ack.Start, ack.Rows, ack.FactRows, b.start, b.rows, b.start+b.rows)
	}
	return true, ""
}

// openLoop sends batches on a fixed schedule — batch i is due at
// start + i×interval — over one connection, whatever the server does.
// A send that finds the connection still busy goes out late, and its
// latency is timed from when it was due, so a stall is charged to every
// send it delays. late[i] is how long after its due time batch i left.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n int, send func(i int) (bool, string)) (ops []op, late []time.Duration) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ops, late
			}
		}
		sent := time.Now()
		ok, why := send(i)
		ops = append(ops, op{kind: opIngest, start: due, end: time.Now(), ok: ok, why: why})
		late = append(late, sent.Sub(due))
	}
	return ops, late
}

// loadResult is everything the measured phase produced.
type loadResult struct {
	ops         []op
	late        []time.Duration
	windowStart time.Time
	windowEnd   time.Time
}

// runLoad drives st for warm+window: readers closed-loop analyst
// sessions on their own connections from the start, and — with batches —
// one open-loop writer from the start of the window. Operations of the
// warm-up are checked like any other but not timed.
func runLoad(ctx context.Context, st *stack, ck *checker, seed int64, readers int, warm, window time.Duration, batches []ingestBatch) *loadResult {
	begin := time.Now()
	res := &loadResult{windowStart: begin.Add(warm), windowEnd: begin.Add(warm + window)}
	proceed := func() bool { return time.Now().Before(res.windowEnd) }

	var wg sync.WaitGroup
	perClient := make([][]op, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newConn(st.base)
			defer c.close()
			seq := newSequence(ck.w, seed, i, len(ck.orc.queries))
			for proceed() {
				runSession(ctx, c, seq.next(), ck, proceed, func(o op) { perClient[i] = append(perClient[i], o) })
			}
		}(i)
	}
	var writerOps []op
	if len(batches) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(st.base)
			defer c.close()
			interval := time.Second / ingestRate
			n := int(window / interval)
			if n > len(batches) {
				n = len(batches)
			}
			writerOps, res.late = openLoop(ctx, res.windowStart, interval, n, func(i int) (bool, string) {
				return sendBatch(ctx, c, batches[i])
			})
		}()
	}
	wg.Wait()
	for _, ops := range perClient {
		res.ops = append(res.ops, ops...)
	}
	res.ops = append(res.ops, writerOps...)
	return res
}
