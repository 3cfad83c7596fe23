package kdapcore

import (
	"context"
	"strings"
	"testing"
)

// FuzzDifferentiate drives the whole differentiate phase with arbitrary
// query strings: it must never panic, and every returned net must cover
// each query keyword at most once.
func FuzzDifferentiate(f *testing.F) {
	for _, seed := range []string{
		"Columbus LCD", "San Jose", "UnitPrice>100", "Income<=0",
		"", "   ", "LCD LCD LCD", "a>b", ">>>", "Columbus UnitPrice>abc",
		"Seattle Portland TV", "x y z w v u t s r q p o n m",
	} {
		f.Add(seed)
	}
	e := ebizEngine()
	f.Fuzz(func(t *testing.T, q string) {
		if len(q) > 200 {
			return // keep the phase cheap under fuzzing
		}
		nets, err := e.DifferentiateCtx(context.Background(), q)
		if err != nil {
			return // rejected queries are fine; panics are not
		}
		for _, sn := range nets {
			if sn.Signature() == "" && len(sn.Groups) > 0 {
				t.Fatalf("net without signature for %q", q)
			}
			nkw := len(strings.Fields(q))
			covered := map[int]bool{}
			for _, bg := range sn.Groups {
				for _, k := range bg.Group.Keywords {
					if covered[k] || k < 0 || k >= nkw {
						t.Fatalf("keyword coverage broken for %q: %v", q, sn)
					}
					covered[k] = true
				}
			}
		}
	})
}

func FuzzParseFilterToken(f *testing.F) {
	for _, seed := range []string{"a>1", "b<=2.5", "c=3", ">", "x>", ">1", "a=b=c", "≤5", "p>=1e300"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		attr, _, _, ok, _ := parseFilterToken(tok)
		if ok && attr == "" {
			t.Fatalf("accepted token %q with empty attribute", tok)
		}
	})
}
