package olap

import (
	"fmt"
	"sort"
	"strings"

	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// PivotTable is a two-dimensional cross-tabulation of a sub-dataspace:
// rows partitioned by one attribute, columns by another, each cell the
// aggregate of the facts falling in both groups. Pivot completes the
// OLAP navigation set the paper lists in §2 (slice-dice, drill-down,
// roll-up, pivot).
type PivotTable struct {
	RowAttr, ColAttr string
	RowKeys, ColKeys []relation.Value
	// Cells[i][j] aggregates the facts with RowKeys[i] and ColKeys[j];
	// missing combinations hold 0 for Sum/Count (NaN would complicate
	// rendering; Present distinguishes true zeros).
	Cells   [][]float64
	Present [][]bool
	// RowTotals / ColTotals / Grand aggregate each margin.
	RowTotals []float64
	ColTotals []float64
	Grand     float64
}

// Pivot cross-tabulates the given fact rows by two attributes reached
// through their join paths.
func (ex *Executor) Pivot(rows []int, rowAttr string, rowPath schemagraph.JoinPath,
	colAttr string, colPath schemagraph.JoinPath, m Measure, agg Agg) *PivotTable {

	rowTable := ex.g.DB().Table(rowPath.Source)
	colTable := ex.g.DB().Table(colPath.Source)
	if rowTable.Schema().ColumnIndex(rowAttr) < 0 || colTable.Schema().ColumnIndex(colAttr) < 0 {
		panic(fmt.Sprintf("olap: pivot attrs %q/%q missing", rowAttr, colAttr))
	}
	// Columnar scan: both axes read fact-aligned dictionary codes, so
	// the cell key is a pair of int32s instead of two boxed Values. The
	// axes may differ in code width; at reads either.
	rCol, _ := ex.attrCodes(rowAttr, rowPath)
	cCol, _ := ex.attrCodes(colAttr, colPath)
	rDict, cDict := rCol.dict, cCol.dict
	vec := measureVec(m)

	cellOf := func(rc, cc int32) int64 { return int64(rc)<<32 | int64(uint32(cc)) }
	states := make(map[int64]*aggState)
	rowSeen := make([]bool, len(rDict))
	colSeen := make([]bool, len(cDict))
	var row []relation.Value // scratch for row-at-a-time measures
	for _, fr := range rows {
		rc, cc := rCol.at(fr), cCol.at(fr)
		if rc < 0 || cc < 0 {
			continue
		}
		rowSeen[rc] = true
		colSeen[cc] = true
		k := cellOf(rc, cc)
		st := states[k]
		if st == nil {
			s := newAggState()
			st = &s
			states[k] = st
		}
		if vec != nil {
			st.add(vec[fr])
		} else {
			row = ex.fact.RowInto(row, fr)
			st.add(m.Eval(row))
		}
	}

	// Order both axes by attribute value; keep the codes alongside so
	// cell lookups stay integer-keyed.
	sortCodes := func(seen []bool, dict []relation.Value) ([]relation.Value, []int32) {
		codes := make([]int32, 0, len(seen))
		for c, ok := range seen {
			if ok {
				codes = append(codes, int32(c))
			}
		}
		sort.Slice(codes, func(i, j int) bool {
			return dict[codes[i]].Compare(dict[codes[j]]) < 0
		})
		vals := make([]relation.Value, len(codes))
		for i, c := range codes {
			vals[i] = dict[c]
		}
		return vals, codes
	}
	rowKeys, rowCodes := sortCodes(rowSeen, rDict)
	colKeys, colCodes := sortCodes(colSeen, cDict)
	pt := &PivotTable{
		RowAttr: rowAttr, ColAttr: colAttr,
		RowKeys: rowKeys, ColKeys: colKeys,
	}
	pt.Cells = make([][]float64, len(pt.RowKeys))
	pt.Present = make([][]bool, len(pt.RowKeys))
	pt.RowTotals = make([]float64, len(pt.RowKeys))
	pt.ColTotals = make([]float64, len(pt.ColKeys))
	grand := newAggState()
	for i, rc := range rowCodes {
		pt.Cells[i] = make([]float64, len(pt.ColKeys))
		pt.Present[i] = make([]bool, len(pt.ColKeys))
		rowState := newAggState()
		for j, cc := range colCodes {
			if st, ok := states[cellOf(rc, cc)]; ok {
				pt.Cells[i][j] = st.final(agg)
				pt.Present[i][j] = true
				rowState.mergeInto(st)
			}
		}
		pt.RowTotals[i] = rowState.final(agg)
		grand.mergeInto(&rowState)
	}
	for j, cc := range colCodes {
		colState := newAggState()
		for _, rc := range rowCodes {
			if st, ok := states[cellOf(rc, cc)]; ok {
				colState.mergeInto(st)
			}
		}
		pt.ColTotals[j] = colState.final(agg)
	}
	pt.Grand = grand.final(agg)
	return pt
}

// String renders the pivot as an aligned text table with margins.
func (pt *PivotTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", pt.RowAttr+" \\ "+pt.ColAttr)
	for _, cv := range pt.ColKeys {
		fmt.Fprintf(&b, " %14s", truncate(cv.Text(), 14))
	}
	fmt.Fprintf(&b, " %14s\n", "TOTAL")
	for i, rv := range pt.RowKeys {
		fmt.Fprintf(&b, "%-20s", truncate(rv.Text(), 20))
		for j := range pt.ColKeys {
			if pt.Present[i][j] {
				fmt.Fprintf(&b, " %14.2f", pt.Cells[i][j])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		fmt.Fprintf(&b, " %14.2f\n", pt.RowTotals[i])
	}
	fmt.Fprintf(&b, "%-20s", "TOTAL")
	for j := range pt.ColKeys {
		fmt.Fprintf(&b, " %14.2f", pt.ColTotals[j])
	}
	fmt.Fprintf(&b, " %14.2f\n", pt.Grand)
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
