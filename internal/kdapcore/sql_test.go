package kdapcore

import (
	"context"
	"strings"
	"testing"

	"kdap/internal/olap"
)

func findNet(t *testing.T, e *Engine, query string, want ...string) *StarNet {
	t.Helper()
	nets, err := e.DifferentiateCtx(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range nets {
		sig := sn.DomainSignature()
		ok := true
		for _, w := range want {
			if !strings.Contains(sig, w) {
				ok = false
			}
		}
		if ok {
			return sn
		}
	}
	t.Fatalf("no net for %q containing %v", query, want)
	return nil
}

func TestSQLSimpleNet(t *testing.T) {
	e := ebizEngine()
	sn := findNet(t, e, "Projectors", "UNSPSC.ClassTitle")
	sql := sn.SQL(e.Measure(), e.Agg(), "TRANSITEM")
	t.Log("\n" + sql)
	for _, want := range []string{
		`SELECT SUM("revenue")`,
		`FROM "TRANSITEM"`,
		`JOIN "PRODUCT" AS "PRODUCT" ON "TRANSITEM"."ProductKey" = "PRODUCT"."ProductKey"`,
		`JOIN "UNSPSC" AS "UNSPSC" ON "PRODUCT"."UnspscKey" = "UNSPSC"."UnspscKey"`,
		`WHERE "UNSPSC"."ClassTitle" IN ('Projectors')`,
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q", want)
		}
	}
	if !strings.HasSuffix(sql, ";") {
		t.Error("missing terminator")
	}
}

// The Seattle/Portland case: buyer city and store city share the TRANS
// join but need distinct LOC aliases.
func TestSQLAliasing(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Seattle Portland")
	if err != nil {
		t.Fatal(err)
	}
	var sn *StarNet
	for _, n := range nets {
		roles := map[string]bool{}
		for _, bg := range n.Groups {
			roles[bg.Path.Role] = true
		}
		if roles["Buyer"] && roles["Store"] {
			sn = n
			break
		}
	}
	if sn == nil {
		t.Fatal("no buyer+store net")
	}
	sql := sn.SQL(e.Measure(), e.Agg(), "TRANSITEM")
	t.Log("\n" + sql)
	// TRANS joined exactly once (shared prefix).
	if n := strings.Count(sql, `JOIN "TRANS" AS`); n != 1 {
		t.Errorf("TRANS joined %d times, want 1", n)
	}
	// LOC joined twice under different aliases.
	if n := strings.Count(sql, `JOIN "LOC" AS`); n != 2 {
		t.Errorf("LOC joined %d times, want 2", n)
	}
	if !strings.Contains(sql, `"LOC"`) || !strings.Contains(sql, `"LOC_`) {
		t.Error("role-suffixed LOC alias missing")
	}
	// Two city predicates against different aliases.
	if strings.Count(sql, `."City" IN (`) != 2 {
		t.Error("expected two city predicates")
	}
}

func TestSQLWithFilters(t *testing.T) {
	e := ebizEngine()
	nets, err := e.DifferentiateCtx(context.Background(), "Projectors UnitPrice>1000 Income<=90000")
	if err != nil {
		t.Fatal(err)
	}
	sql := nets[0].SQL(e.Measure(), e.Agg(), "TRANSITEM")
	t.Log("\n" + sql)
	if !strings.Contains(sql, `"TRANSITEM"."UnitPrice" > 1000`) {
		t.Error("fact filter missing")
	}
	if !strings.Contains(sql, `."Income" <= 90000`) {
		t.Error("dimension filter missing")
	}
	// The dimension filter's join chain must be rendered.
	if !strings.Contains(sql, `JOIN "CUSTOMER" AS`) {
		t.Error("filter join chain missing")
	}
}

func TestSQLQuoting(t *testing.T) {
	if quoteIdent(`we"ird`) != `"we""ird"` {
		t.Error("ident quoting")
	}
	if quoteValue("O'Brien") != "'O''Brien'" {
		t.Error("value quoting")
	}
	if measureSQL(olap.Measure{}) != "*" {
		t.Error("unnamed measure")
	}
}
