// Package relation implements a small in-memory relational engine: typed
// values, table schemas with primary/foreign keys, tables stored as typed
// columns (with hash indexes on dimension-sized ones), and the
// scan/filter/lookup primitives that the KDAP star-net executor is built
// on.
//
// The engine intentionally supports exactly the operations a star/snowflake
// OLAP schema needs — equality lookups along key columns, predicate scans,
// and distinct-value projection — rather than a general query language.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero Kind so that the zero
// Value is a well-formed NULL.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MarshalText spells the kind as a warehouse manifest does: its String.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a manifest's column kind, in any case: string
// (or text), int (integer), float (number, real), bool (boolean) or
// null, which no schema accepts.
func (k *Kind) UnmarshalText(b []byte) error {
	switch strings.ToLower(string(b)) {
	case "null":
		*k = KindNull
	case "string", "text":
		*k = KindString
	case "int", "integer":
		*k = KindInt
	case "float", "number", "real":
		*k = KindFloat
	case "bool", "boolean":
		*k = KindBool
	default:
		return fmt.Errorf("relation: unknown column kind %q", b)
	}
	return nil
}

// Value is a dynamically typed relational value. Value is comparable (it
// contains no pointers or slices) and may therefore be used directly as a
// map key, which the group-by and index code relies on.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// String returns a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool returns a boolean Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string content of v. It panics unless v is a string;
// use Text for a lossy any-kind rendering.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: Str on %s value", v.kind))
	}
	return v.s
}

// IntVal returns the integer content of v. It panics unless v is an int.
func (v Value) IntVal() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: IntVal on %s value", v.kind))
	}
	return v.i
}

// FloatVal returns the float content of v. It panics unless v is a float.
func (v Value) FloatVal() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("relation: FloatVal on %s value", v.kind))
	}
	return v.f
}

// BoolVal returns the boolean content of v. It panics unless v is a bool.
func (v Value) BoolVal() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: BoolVal on %s value", v.kind))
	}
	return v.b
}

// Numeric reports whether v carries a numeric kind (int or float).
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat converts a numeric value to float64. NULL converts to NaN so that
// aggregation code can skip it; other kinds panic.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	case KindNull:
		return math.NaN()
	default:
		panic(fmt.Sprintf("relation: AsFloat on %s value", v.kind))
	}
}

// FloatOrNaN converts a numeric value to float64 and every other kind —
// NULL, string, bool — to NaN. It is the non-panicking sibling of
// AsFloat; the columnar kernels use NaN as the single absent-value
// sentinel so that a []float64 column needs no side validity mask.
func (v Value) FloatOrNaN() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		return math.NaN()
	}
}

// Text renders any value as a string: strings verbatim, numbers in decimal
// notation, booleans as true/false, NULL as the empty string. Text is what
// the full-text indexer feeds to the tokenizer.
func (v Value) Text() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return ""
	}
}

// Equal reports deep equality of two values. Int and float values of equal
// magnitude compare equal (3 == 3.0), matching SQL numeric comparison.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		return v == o
	}
	if v.Numeric() && o.Numeric() {
		return v.AsFloat() == o.AsFloat()
	}
	return false
}

// Compare orders two values. NULL sorts before everything; values of
// different non-numeric kinds order by kind. The result is -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.Numeric() && o.Numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	default:
		return 0
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return strconv.Quote(v.s)
	default:
		return v.Text()
	}
}
