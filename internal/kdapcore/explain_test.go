package kdapcore

import (
	"context"
	"math"
	"strings"
	"testing"
)

// Explain must reconstruct exactly the score the standard ranking
// assigned.
func TestExplainMatchesScore(t *testing.T) {
	e := ebizEngine()
	for _, q := range []string{"Columbus LCD", "San Jose", "Projectors"} {
		nets, err := e.DifferentiateCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i, sn := range nets {
			if i > 5 {
				break
			}
			ex := sn.Explain()
			if math.Abs(ex.Score-sn.Score) > 1e-12 {
				t.Errorf("%q net %d: explained %.9f, ranked %.9f", q, i, ex.Score, sn.Score)
			}
			if len(ex.Groups) != len(sn.Groups) {
				t.Errorf("%q net %d: group count", q, i)
			}
			var sum float64
			for _, g := range ex.Groups {
				sum += g.Contribution
			}
			if math.Abs(sum-ex.GroupSum) > 1e-12 {
				t.Errorf("%q net %d: contributions don't add up", q, i)
			}
		}
	}
}

func TestExplainPhraseAndRendering(t *testing.T) {
	e := ebizEngine()
	nets, _ := e.DifferentiateCtx(context.Background(), "San Jose")
	ex := nets[0].Explain()
	if len(ex.Groups) != 1 || ex.Groups[0].Phrase != "San Jose" {
		t.Fatalf("explanation = %+v", ex)
	}
	out := ex.String()
	if !strings.Contains(out, "|SN|²=1") || !strings.Contains(out, `phrase="San Jose"`) {
		t.Errorf("rendering: %s", out)
	}
}

func TestExplainEmptyNet(t *testing.T) {
	ex := (&StarNet{}).Explain()
	if ex.Score != 0 || ex.NumNorm != 0 {
		t.Errorf("empty net explanation: %+v", ex)
	}
}
