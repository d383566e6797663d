package table

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Value is a single cell value in a self-describing form.
// It is used where rows must leave their column storage: next-K results,
// find-text results, RPC payloads, and the expression evaluator.
//
// Exactly one of I, D, S is meaningful, selected by Kind; a missing cell
// has Missing set and its payload fields are zero.
type Value struct {
	Kind    Kind
	Missing bool
	I       int64   // KindInt, KindDate (millis since epoch)
	D       float64 // KindDouble
	S       string  // KindString
}

// IntValue returns a non-missing integer Value.
func IntValue(v int64) Value { return Value{Kind: KindInt, I: v} }

// DoubleValue returns a non-missing double Value.
func DoubleValue(v float64) Value { return Value{Kind: KindDouble, D: v} }

// StringValue returns a non-missing string Value.
func StringValue(v string) Value { return Value{Kind: KindString, S: v} }

// DateValue returns a non-missing date Value from a time.Time.
func DateValue(t time.Time) Value { return Value{Kind: KindDate, I: t.UnixMilli()} }

// MissingValue returns a missing Value of the given kind.
func MissingValue(k Kind) Value { return Value{Kind: k, Missing: true} }

// Double converts the value to a float64. Strings return 0; callers must
// check Kind.Numeric() when a real number is required.
func (v Value) Double() float64 {
	switch v.Kind {
	case KindInt, KindDate:
		return float64(v.I)
	case KindDouble:
		return v.D
	default:
		return 0
	}
}

// String renders the value for display. Missing values render as the
// empty string, matching the CSV representation.
func (v Value) String() string {
	if v.Missing {
		return ""
	}
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindDouble:
		return strconv.FormatFloat(v.D, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return time.UnixMilli(v.I).UTC().Format("2006-01-02 15:04:05")
	default:
		return ""
	}
}

// Compare orders two values. Missing sorts before any present value;
// values of different kinds order by kind (this only happens across
// heterogeneous schemas, which the spreadsheet does not produce).
func (v Value) Compare(o Value) int {
	if v.Missing || o.Missing {
		switch {
		case v.Missing && o.Missing:
			return 0
		case v.Missing:
			return -1
		default:
			return 1
		}
	}
	if v.Kind != o.Kind {
		// Dates and ints compare numerically with doubles.
		if v.Kind.Numeric() && o.Kind.Numeric() {
			return cmpFloat(v.Double(), o.Double())
		}
		return cmpInt(int64(v.Kind), int64(o.Kind))
	}
	switch v.Kind {
	case KindInt, KindDate:
		return cmpInt(v.I, o.I)
	case KindDouble:
		return cmpFloat(v.D, o.D)
	case KindString:
		return strings.Compare(v.S, o.S)
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Row is a materialized row: one Value per column of some schema.
type Row []Value

// Equal reports whether two rows hold identical values in every column.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i].Compare(o[i]) != 0 || r[i].Missing != o[i].Missing {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a comma-separated list, for diagnostics.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return fmt.Sprintf("[%s]", strings.Join(parts, ", "))
}
