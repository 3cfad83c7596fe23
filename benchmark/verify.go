package main

import (
	"context"
	"fmt"
	"time"
)

// maxDrillSample bounds the drilled explores re-executed after the
// window.
const maxDrillSample = 200

// verify runs the checks that need the window to be over. wrong lists
// the answers that failed them, note says what was checked; an error
// means the check itself could not run.
func verify(ctx context.Context, cfg runConfig, st *stack, ck *checker, load *loadResult) (wrong []string, note string, err error) {
	switch {
	case cfg.w.drill:
		return verifyDrills(ctx, cfg, st, ck)
	case cfg.w.ingest:
		return verifyIngest(ctx, cfg, st, ck, len(load.late))
	}
	return nil, "", nil
}

// verifyDrills re-executes a seeded sample of the drilled explores the
// window saw on a fresh server — new engine, cold caches, one request at
// a time — and compares with the first answer the window recorded. The
// sample is cut off after a third of the window's length.
func verifyDrills(ctx context.Context, cfg runConfig, st *stack, ck *checker) (wrong []string, note string, err error) {
	fresh, err := newStack(cfg.w, cfg.facts, st.wh)
	if err != nil {
		return nil, "", err
	}
	defer fresh.close()
	c := newConn(fresh.base)
	defer c.close()

	deadline := time.Now().Add(cfg.window / 3)
	checked := 0
	for _, k := range ck.book.sample(cfg.seed, maxDrillSample) {
		if time.Now().After(deadline) {
			break
		}
		got, err := replayDrill(ctx, c, ck.orc.queries[k.query].Text, k)
		if err != nil {
			return nil, "", err
		}
		checked++
		if !ck.book.check(k, got) {
			wrong = append(wrong, fmt.Sprintf("drilled explore %v answers %v on a fresh server, not what the window saw", k, got))
		}
	}
	return wrong, fmt.Sprintf("re-executed %d of %d distinct drilled explores on a fresh server", checked, len(ck.book.keys)), nil
}

// replayDrill runs query → explore → drill(k) → explore over c and
// returns the last answer.
func replayDrill(ctx context.Context, c *conn, text string, k drillKey) (answer, error) {
	res, err := c.api.Query(ctx, dbName, text)
	if err != nil {
		return answer{}, fmt.Errorf("verify query %q: %w", text, err)
	}
	facets, err := c.api.Explore(ctx, res.Session, 1, exploreDefaults)
	if err != nil {
		return answer{}, fmt.Errorf("verify explore %q: %w", text, err)
	}
	for _, d := range facets.Dimensions {
		for _, a := range d.Attributes {
			if fmt.Sprintf("%s.%s[%s]", a.Table, a.Attr, a.Role) != k.attr {
				continue
			}
			for _, inst := range a.Instances {
				if inst.Label != k.label {
					continue
				}
				var drilled string
				if a.Numeric {
					drilled, err = c.api.DrillRange(ctx, res.Session, 1, a, inst.Lo, inst.Hi)
				} else {
					drilled, err = c.api.Drill(ctx, res.Session, 1, a, inst.Label)
				}
				if err != nil {
					return answer{}, fmt.Errorf("verify drill %v: %w", k, err)
				}
				_, err = c.api.Explore(ctx, drilled, 1, exploreDefaults)
				return c.result(err)
			}
		}
	}
	return answer{}, fmt.Errorf("verify: facet instance %v is not in the fresh server's answer", k)
}

// verifyIngest drains the rest of the fact stream into the live server,
// then asks it — with the caches the window left it — all 50 sessions,
// and asks the same of a server over a from-scratch build of the full
// warehouse. The generator is seeded, so both hold the same facts and
// every answer must be byte-identical: any cached answer an append
// wrongly left in place, and any index the append path maintained
// differently from a rebuild, shows here.
func verifyIngest(ctx context.Context, cfg runConfig, st *stack, ck *checker, sent int) (wrong []string, note string, err error) {
	c := newConn(st.base)
	defer c.close()
	rest := st.tail[sent*ingestBatchRows:]
	for _, b := range encodeBatches(rest, factLen(st.wh), drainBatchRows) {
		if ok, why := sendBatch(ctx, c, b); !ok {
			return []string{"drain: " + why}, "", nil
		}
	}
	live, err := oraclePass(ctx, c, ck.orc.queries)
	if err != nil {
		return nil, "", err
	}
	scratch, err := newStack(cfg.w, 0, buildAWScaled(factLen(st.wh)))
	if err != nil {
		return nil, "", err
	}
	defer scratch.close()
	sc := newConn(scratch.base)
	defer sc.close()
	want, err := oraclePass(ctx, sc, ck.orc.queries)
	if err != nil {
		return nil, "", err
	}
	for _, d := range want.diff(live) {
		wrong = append(wrong, "from-scratch vs streamed: "+d)
	}
	return wrong, fmt.Sprintf("parity: %d of %d answers byte-identical to a from-scratch build of %d facts",
		2*len(want.queries)-len(wrong), 2*len(want.queries), factLen(st.wh)), nil
}
