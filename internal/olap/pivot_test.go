package olap

import (
	"context"
	"math"
	"strings"
	"testing"

	"kdap/internal/relation"
	"kdap/internal/telemetry"
)

func TestPivotTotalsConsistency(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	rows := mustFactRows(t, ex, nil)
	pt := mustPivot(t, ex, rows, "GroupName", pathTo(t, "PGROUP", "Product"),
		"State", pathTo(t, "LOC", "Store"), m, Sum)

	if len(pt.RowKeys) == 0 || len(pt.ColKeys) == 0 {
		t.Fatal("empty pivot")
	}
	total := mustAggregate(t, ex, rows, m, Sum)
	if math.Abs(pt.Grand-total) > 1e-6*total {
		t.Errorf("grand %g != total %g", pt.Grand, total)
	}
	var rowSum, colSum float64
	for _, v := range pt.RowTotals {
		rowSum += v
	}
	for _, v := range pt.ColTotals {
		colSum += v
	}
	if math.Abs(rowSum-pt.Grand) > 1e-6*pt.Grand || math.Abs(colSum-pt.Grand) > 1e-6*pt.Grand {
		t.Errorf("margins: rows %g cols %g grand %g", rowSum, colSum, pt.Grand)
	}
	// Each cell equals the direct aggregate of the two-constraint slice.
	rv, cv := pt.RowKeys[0], pt.ColKeys[0]
	ri, ci := 0, 0
	slice := mustFactRows(t, ex, []Constraint{
		{Table: "PGROUP", Attr: "GroupName", Values: []relation.Value{rv}, Path: pathTo(t, "PGROUP", "Product")},
		{Table: "LOC", Attr: "State", Values: []relation.Value{cv}, Path: pathTo(t, "LOC", "Store")},
	})
	want := mustAggregate(t, ex, slice, m, Sum)
	if pt.Present[ri][ci] != (len(slice) > 0) {
		t.Errorf("presence mismatch")
	}
	if pt.Present[ri][ci] && math.Abs(pt.Cells[ri][ci]-want) > 1e-6*(want+1) {
		t.Errorf("cell = %g, direct = %g", pt.Cells[ri][ci], want)
	}
}

func TestPivotRendering(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	m := revenue(t)
	rows := mustFactRows(t, ex, nil)[:500]
	pt := mustPivot(t, ex, rows, "LineName", pathTo(t, "PLINE", "Product"),
		"Country", pathTo(t, "LOC", "Store"), m, Sum)
	out := pt.String()
	if !strings.Contains(out, "TOTAL") || !strings.Contains(out, "LineName \\ Country") {
		t.Errorf("rendering:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(pt.RowKeys)+2 {
		t.Errorf("line count %d, want %d", len(lines), len(pt.RowKeys)+2)
	}
}

func TestPivotCountAgg(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	rows := mustFactRows(t, ex, nil)
	pt := mustPivot(t, ex, rows, "GroupName", pathTo(t, "PGROUP", "Product"),
		"Country", pathTo(t, "LOC", "Store"), CountMeasure(), Count)
	if int(pt.Grand) != len(rows) {
		t.Errorf("count grand = %g, want %d", pt.Grand, len(rows))
	}
}

// A pivot counts its code column builds and its scan on the request, like
// the other kernels (TestCtxVariantsCancel holds its cancellation).
func TestPivotCountsOnTrace(t *testing.T) {
	ex := NewExecutor(ebiz.Graph)
	rows := mustFactRows(t, ex, nil)
	tr := telemetry.NewTrace("pivot")
	if _, err := ex.Pivot(tr.Context(context.Background()), rows, "GroupName", pathTo(t, "PGROUP", "Product"),
		"State", pathTo(t, "LOC", "Store"), revenue(t), Sum); err != nil {
		t.Fatal(err)
	}
	if tr.Count(telemetry.CodeColumnBuilds) < 1 {
		t.Errorf("a cold pivot counted %d code column builds", tr.Count(telemetry.CodeColumnBuilds))
	}
	if tr.Count(telemetry.SerialScans) != 1 || tr.Count(telemetry.RowsScanned) != int64(len(rows)) {
		t.Errorf("pivot counted %d scans over %d rows, want 1 over %d",
			tr.Count(telemetry.SerialScans), tr.Count(telemetry.RowsScanned), len(rows))
	}
}
