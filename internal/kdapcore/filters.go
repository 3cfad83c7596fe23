package kdapcore

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"kdap/internal/olap"
	"kdap/internal/relation"
	"kdap/internal/schemagraph"
)

// The paper's §7 notes that "our current model does not consider measure
// attributes as hit candidates" and flags it as future work. This file
// implements that extension: a query token of the form
//
//	Attr>100   Attr>=100   Attr<100   Attr<=100   Attr=100
//
// is recognized as a numeric predicate rather than a keyword. The
// attribute name resolves case-insensitively against the fact table's
// numeric columns (measure attributes) and the dimensions' numeric
// group-by candidates, and the predicate further slices every star net's
// sub-dataspace ("UnitPrice>500 Columbus LCD" → expensive LCD sales in
// Columbus).

// FilterOp is a numeric comparison operator.
type FilterOp int

// The supported comparison operators.
const (
	OpGT FilterOp = iota
	OpGE
	OpLT
	OpLE
	OpEQ
)

// String renders the operator symbol.
func (op FilterOp) String() string {
	switch op {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	default:
		return "?"
	}
}

// Matches applies the operator.
func (op FilterOp) Matches(x, bound float64) bool {
	switch op {
	case OpGT:
		return x > bound
	case OpGE:
		return x >= bound
	case OpLT:
		return x < bound
	case OpLE:
		return x <= bound
	case OpEQ:
		return x == bound
	default:
		return false
	}
}

// NumericFilter is one resolved numeric predicate of a query.
type NumericFilter struct {
	// Raw is the original query token.
	Raw string
	// Attr is the resolved attribute; for fact (measure) columns the
	// table is the fact table itself.
	Attr schemagraph.AttrRef
	// Role is the join-path role used to reach a dimension attribute;
	// empty for fact columns.
	Role string
	// Path is the resolved join path from the attribute's table to the
	// fact table (empty for fact columns).
	Path schemagraph.JoinPath
	// OnFact marks a measure attribute on the fact table.
	OnFact bool
	Op     FilterOp
	Value  float64
}

// String renders the filter as "Table.Attr>value".
func (nf NumericFilter) String() string {
	return fmt.Sprintf("%s%s%g", nf.Attr, nf.Op, nf.Value)
}

// constraint is the predicate as a slice of the sub-dataspace: a range
// constraint on its attribute, holding exactly the values Op.Matches
// accepts against Value.
func (nf NumericFilter) constraint() olap.Constraint {
	iv := olap.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
	switch nf.Op {
	case OpGT:
		iv.Lo, iv.LoOpen = nf.Value, true
	case OpGE:
		iv.Lo = nf.Value
	case OpLT:
		iv.Hi, iv.HiOpen = nf.Value, true
	case OpLE:
		iv.Hi = nf.Value
	case OpEQ:
		iv.Lo, iv.Hi = nf.Value, nf.Value
	default:
		iv.Lo, iv.Hi = math.Inf(1), math.Inf(-1) // matches nothing
	}
	return olap.Constraint{Table: nf.Attr.Table, Attr: nf.Attr.Attr, Range: &iv, Path: nf.Path}
}

// parseFilterToken splits a token like "Price>=100" into its parts. ok
// reports whether the token is predicate-shaped: a name, an operator
// and a number. A predicate-shaped token whose number is not finite
// ("Price>NaN", "Price>1e999") is an error naming it — no row can be
// sliced by it, and read as a keyword it would be dropped silently.
func parseFilterToken(tok string) (attr string, op FilterOp, val float64, ok bool, err error) {
	for _, cand := range []struct {
		sym string
		op  FilterOp
	}{
		// Two-character operators first so ">=" does not parse as ">".
		{">=", OpGE}, {"<=", OpLE}, {">", OpGT}, {"<", OpLT}, {"=", OpEQ},
	} {
		i := strings.Index(tok, cand.sym)
		if i <= 0 || i+len(cand.sym) >= len(tok) {
			continue
		}
		name := tok[:i]
		numStr := tok[i+len(cand.sym):]
		v, perr := strconv.ParseFloat(numStr, 64)
		if perr != nil && !errors.Is(perr, strconv.ErrRange) {
			return "", 0, 0, false, nil
		}
		if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return name, cand.op, v, true, fmt.Errorf("kdap: predicate %q needs a finite number", tok)
		}
		return name, cand.op, v, true, nil
	}
	return "", 0, 0, false, nil
}

// resolveFilter binds a parsed predicate to a concrete numeric attribute:
// fact-table numeric columns first (measure attributes), then the
// dimensions' numeric group-by candidates, matched case-insensitively.
func (e *Engine) resolveFilter(raw, name string, op FilterOp, val float64) (NumericFilter, error) {
	fact := e.graph.DB().Table(e.graph.FactTable())
	for _, col := range fact.Schema().Columns {
		if !strings.EqualFold(col.Name, name) {
			continue
		}
		if col.Kind != relation.KindInt && col.Kind != relation.KindFloat {
			return NumericFilter{}, fmt.Errorf("kdap: %s is not numeric", col.Name)
		}
		return NumericFilter{
			Raw:    raw,
			Attr:   schemagraph.AttrRef{Table: fact.Name(), Attr: col.Name},
			OnFact: true, Op: op, Value: val,
		}, nil
	}
	for _, d := range e.graph.Dimensions() {
		for _, gb := range d.GroupBy {
			if !strings.EqualFold(gb.Attr, name) {
				continue
			}
			col, ok := e.graph.DB().Table(gb.Table).Schema().Column(gb.Attr)
			if !ok || (col.Kind != relation.KindInt && col.Kind != relation.KindFloat) {
				continue
			}
			path, ok := e.graph.PathFromFact(gb.Table, d.Name)
			if !ok {
				continue
			}
			return NumericFilter{Raw: raw, Attr: gb, Role: d.Name, Path: path, Op: op, Value: val}, nil
		}
	}
	return NumericFilter{}, fmt.Errorf("kdap: no numeric attribute named %q", name)
}

// extractFilters splits the query's tokens into numeric predicates and
// plain keywords. Unresolvable predicate-shaped tokens are an error —
// silently treating "Price>100" as text would surprise the user.
func (e *Engine) extractFilters(keywords []string) (filters []NumericFilter, rest []string, err error) {
	for _, kw := range keywords {
		name, op, val, ok, err := parseFilterToken(kw)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			rest = append(rest, kw)
			continue
		}
		nf, err := e.resolveFilter(kw, name, op, val)
		if err != nil {
			return nil, nil, err
		}
		filters = append(filters, nf)
	}
	return filters, rest, nil
}
