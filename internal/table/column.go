package table

import "fmt"

// Column is an immutable typed vector with optional missing values.
//
// Every column is one of three stored types, and a scan reads it through
// its backing storage: IntColumn.Ints, DoubleColumn.Doubles or
// StringColumn.Codes and Dict, together with MissingMask. The interface
// itself has no per-row typed accessor, so a kernel type-switches once
// and loops over a slice. Value materializes one row for the places
// that keep rows: result rows, the row writers, the expression row
// evaluator. Returned slices and bitsets are the live storage and must
// not be modified.
type Column interface {
	// Kind returns the column's value kind.
	Kind() Kind
	// Len returns the number of physical rows (membership sets restrict
	// which of them are visible).
	Len() int
	// Value returns row i as a self-describing Value.
	Value(i int) Value
}

// maskOrNil returns missing, or nil when it marks no row missing, so a
// column with no missing rows has a nil MissingMask.
func maskOrNil(missing *Bitset) *Bitset {
	if missing == nil || missing.Count() == 0 {
		return nil
	}
	return missing
}

// IntColumn stores int64 data; it backs both KindInt and KindDate.
type IntColumn struct {
	kind    Kind
	vals    []int64
	missing *Bitset // nil when the column has no missing values
}

// NewIntColumn wraps vals as a column of the given kind (KindInt or
// KindDate). missing may be nil.
func NewIntColumn(kind Kind, vals []int64, missing *Bitset) *IntColumn {
	if kind != KindInt && kind != KindDate {
		panic(fmt.Sprintf("table: NewIntColumn with kind %v", kind))
	}
	return &IntColumn{kind: kind, vals: vals, missing: maskOrNil(missing)}
}

// Kind implements Column.
func (c *IntColumn) Kind() Kind { return c.kind }

// Len implements Column.
func (c *IntColumn) Len() int { return len(c.vals) }

// Value implements Column.
func (c *IntColumn) Value(i int) Value {
	if c.missing.Get(i) {
		return MissingValue(c.kind)
	}
	return Value{Kind: c.kind, I: c.vals[i]}
}

// Ints returns the backing value slice (missing rows hold zero). Callers
// must not modify it.
func (c *IntColumn) Ints() []int64 { return c.vals }

// MissingMask returns the missing bitset, nil when no row is missing.
func (c *IntColumn) MissingMask() *Bitset { return c.missing }

// DoubleColumn stores float64 data (KindDouble).
type DoubleColumn struct {
	vals    []float64
	missing *Bitset // nil when the column has no missing values
}

// NewDoubleColumn wraps vals as a KindDouble column. missing may be nil.
func NewDoubleColumn(vals []float64, missing *Bitset) *DoubleColumn {
	return &DoubleColumn{vals: vals, missing: maskOrNil(missing)}
}

// Kind implements Column.
func (c *DoubleColumn) Kind() Kind { return KindDouble }

// Len implements Column.
func (c *DoubleColumn) Len() int { return len(c.vals) }

// Value implements Column.
func (c *DoubleColumn) Value(i int) Value {
	if c.missing.Get(i) {
		return MissingValue(KindDouble)
	}
	return Value{Kind: KindDouble, D: c.vals[i]}
}

// Doubles returns the backing value slice (missing rows hold zero).
// Callers must not modify it.
func (c *DoubleColumn) Doubles() []float64 { return c.vals }

// MissingMask returns the missing bitset, nil when no row is missing.
func (c *DoubleColumn) MissingMask() *Bitset { return c.missing }

// StringColumn stores dictionary-encoded strings (paper §6: "String
// columns use dictionary encoding for compression"). The dictionary is
// sorted, so code order equals lexicographic order.
type StringColumn struct {
	dict    []string // sorted, unique
	codes   []int32  // index into dict; value for missing rows is 0
	missing *Bitset  // nil when the column has no missing values
}

// NewDictColumn wraps an already dictionary-encoded string column: dict
// must be sorted ascending and unique, and codes index into it (missing
// rows hold code 0, shadowed by the mask). The column-store layer uses
// it to reconstruct string columns from a stored dictionary section
// without re-encoding; because dict and codes come from external data,
// the sort invariant is validated here and a violation is an error, not
// a panic. Callers are responsible for validating that every code is
// within range, missing rows included: scan kernels read a code before
// they consult the mask. An empty dictionary means every row is missing
// and every code is 0. The slices are adopted, not copied, so codes may
// alias memory-mapped storage.
func NewDictColumn(dict []string, codes []int32, missing *Bitset) (*StringColumn, error) {
	for i := 1; i < len(dict); i++ {
		if dict[i-1] >= dict[i] {
			return nil, fmt.Errorf("table: dictionary not sorted/unique at %d: %q >= %q", i, dict[i-1], dict[i])
		}
	}
	return &StringColumn{dict: dict, codes: codes, missing: maskOrNil(missing)}, nil
}

// NewStringColumn builds a string column from raw values. Prefer the
// Builder for bulk loading; this constructor is for tests and small data.
func NewStringColumn(vals []string, missing *Bitset) *StringColumn {
	b := newStringBuilder(len(vals))
	for i, v := range vals {
		if missing.Get(i) {
			b.AppendMissing()
		} else {
			b.Append(StringValue(v))
		}
	}
	return b.Freeze().(*StringColumn)
}

// Kind implements Column.
func (c *StringColumn) Kind() Kind { return KindString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// Value implements Column.
func (c *StringColumn) Value(i int) Value {
	if c.missing.Get(i) {
		return MissingValue(KindString)
	}
	return Value{Kind: KindString, S: c.dict[c.codes[i]]}
}

// Codes returns the backing code slice (missing rows hold code 0).
// Callers must not modify it.
func (c *StringColumn) Codes() []int32 { return c.codes }

// MissingMask returns the missing bitset, nil when no row is missing.
func (c *StringColumn) MissingMask() *Bitset { return c.missing }

// Dict returns the sorted dictionary. Callers must not modify it.
func (c *StringColumn) Dict() []string { return c.dict }

// DictSize returns the number of distinct non-missing values.
func (c *StringColumn) DictSize() int { return len(c.dict) }
