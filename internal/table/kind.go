// Package table implements Hillview's in-memory columnar table substrate:
// typed columns with missing-value support, dictionary-encoded strings,
// membership sets for zero-copy filtering, uniform row sampling, and
// multi-column sort orders.
//
// Tables are immutable once frozen; derived tables (filters, projections,
// appended derived columns) share column storage with their parents. This
// is the property that lets the engine treat all in-memory state as
// disposable soft state (paper §5.6–5.7).
//
// # Batch iteration
//
// Scans are vectorized: in addition to row-at-a-time Iterate, every
// Membership implements IterateSpans (maximal runs of consecutive member
// rows) and FillBatch (bulk row-index decoding into a reused buffer), a
// bitmap membership also yields its member words (IterateWords), and
// the stored column types expose their backing slices (IntColumn.Ints,
// DoubleColumn.Doubles, StringColumn.Codes) plus MissingMask/HasMissing.
// Sketch kernels combine the two to scan columns with no per-row
// interface dispatch. The contract: batch forms visit exactly the rows
// Iterate visits, in the same increasing order, deterministically; see
// the Membership interface comment for the details.
package table

import "fmt"

// Kind enumerates the value types Hillview supports (paper §3.5):
// integers, floating-point numbers, dates, and strings (free-form text and
// categorical data share one representation; categories are simply strings
// with low dictionary cardinality).
type Kind uint8

const (
	// KindNone marks an absent value kind (e.g., a missing Value).
	KindNone Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindDouble is a 64-bit IEEE float.
	KindDouble
	// KindString is a dictionary-encoded string.
	KindString
	// KindDate is a timestamp in milliseconds since the Unix epoch,
	// stored as int64.
	KindDate
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindInt:
		return "int"
	case KindDouble:
		return "double"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind can be converted to a
// float64 for bucketing (paper §4.3: "a value that can be readily
// converted to a real number, such as a date").
func (k Kind) Numeric() bool {
	return k == KindInt || k == KindDouble || k == KindDate
}

// ParseKind converts a kind name produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none":
		return KindNone, nil
	case "int":
		return KindInt, nil
	case "double":
		return KindDouble, nil
	case "string":
		return KindString, nil
	case "date":
		return KindDate, nil
	default:
		return KindNone, fmt.Errorf("table: unknown kind %q", s)
	}
}
