package table

import (
	"strings"
)

// ColumnSortOrder is one component of a multi-column sort: a column name
// and a direction.
type ColumnSortOrder struct {
	Column    string
	Ascending bool
}

// RecordOrder is a lexicographic multi-column sort order (paper §3.3:
// "Sort by a set of columns"). The zero-length order compares all rows
// equal.
type RecordOrder []ColumnSortOrder

// Asc builds a single-column ascending order.
func Asc(col string) RecordOrder { return RecordOrder{{Column: col, Ascending: true}} }

// Desc builds a single-column descending order.
func Desc(col string) RecordOrder { return RecordOrder{{Column: col, Ascending: false}} }

// Then appends another sort component.
func (o RecordOrder) Then(col string, ascending bool) RecordOrder {
	return append(append(RecordOrder{}, o...), ColumnSortOrder{Column: col, Ascending: ascending})
}

// Reversed returns the order with every direction flipped; paging
// backwards through a view is paging forwards through the reversed order.
func (o RecordOrder) Reversed() RecordOrder {
	out := make(RecordOrder, len(o))
	for i, c := range o {
		out[i] = ColumnSortOrder{Column: c.Column, Ascending: !c.Ascending}
	}
	return out
}

// Columns returns the column names in order.
func (o RecordOrder) Columns() []string {
	out := make([]string, len(o))
	for i, c := range o {
		out[i] = c.Column
	}
	return out
}

// String renders the order as "+col,-col".
func (o RecordOrder) String() string {
	parts := make([]string, len(o))
	for i, c := range o {
		sign := "+"
		if !c.Ascending {
			sign = "-"
		}
		parts[i] = sign + c.Column
	}
	return strings.Join(parts, ",")
}

// RowComparator returns a comparator over materialized Rows laid out as
// [sort columns..., extra columns...], comparing only the first len(o)
// positions. Next-K summaries materialize rows in exactly this layout so
// merging at aggregation nodes needs no schema access.
func (o RecordOrder) RowComparator() func(a, b Row) int {
	n := len(o)
	asc := make([]bool, n)
	for k, c := range o {
		asc[k] = c.Ascending
	}
	return func(a, b Row) int {
		for k := 0; k < n; k++ {
			cmp := a[k].Compare(b[k])
			if cmp != 0 {
				if !asc[k] {
					return -cmp
				}
				return cmp
			}
		}
		return 0
	}
}
