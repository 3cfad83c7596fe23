package experiments

import (
	"context"
	"strings"
	"testing"

	"kdap/internal/dataset"
	"kdap/internal/workload"
)

// Every workload query's top interpretations must render to well-formed
// SQL: balanced quoting, the fact table in FROM, one JOIN per introduced
// alias, and every hit group's predicate present.
func TestSQLWellFormedAcrossWorkload(t *testing.T) {
	e := Engine(dataset.AWOnline())
	fact := e.Graph().FactTable()
	for _, q := range workload.AWOnlineQueries() {
		nets, err := e.DifferentiateCtx(context.Background(), q.Text)
		if err != nil {
			t.Fatalf("%q: %v", q.Text, err)
		}
		for i, sn := range nets {
			if i >= 3 {
				break
			}
			sql := sn.SQL(e.Measure(), e.Agg(), fact)
			if strings.Count(sql, `"`)%2 != 0 {
				t.Fatalf("%q net %d: unbalanced identifier quotes\n%s", q.Text, i, sql)
			}
			if !strings.Contains(sql, `FROM "`+fact+`"`) {
				t.Fatalf("%q net %d: fact table missing\n%s", q.Text, i, sql)
			}
			if !strings.HasSuffix(sql, ";") {
				t.Fatalf("%q net %d: no terminator", q.Text, i)
			}
			if len(sn.Groups) > 0 && !strings.Contains(sql, " IN (") {
				t.Fatalf("%q net %d: no IN predicate\n%s", q.Text, i, sql)
			}
			// Single-quote count is even outside of doubled escapes; hit
			// values may contain apostrophes which double, preserving
			// parity.
			if strings.Count(sql, "'")%2 != 0 {
				t.Fatalf("%q net %d: unbalanced literals\n%s", q.Text, i, sql)
			}
		}
	}
}
