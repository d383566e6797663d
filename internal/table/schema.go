package table

import (
	"fmt"
	"strings"
)

// ColumnDesc describes one column: its name and value kind.
type ColumnDesc struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of column descriptions. Schemas are
// immutable; Append and Project return new schemas. All fields are
// exported so schemas serialize with encoding/json.
type Schema struct {
	Columns []ColumnDesc
}

// NewSchema builds a schema from column descriptions. Column names must
// be unique.
func NewSchema(cols ...ColumnDesc) *Schema {
	s := &Schema{Columns: cols}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			panic(fmt.Sprintf("table: duplicate column %q in schema", c.Name))
		}
		seen[c.Name] = true
	}
	return s
}

// NumColumns returns the schema width.
func (s *Schema) NumColumns() int { return len(s.Columns) }

// ColumnIndex returns the position of the named column, or -1 if absent.
// Schemas are narrow (hundreds of columns at most) and lookups happen per
// query, not per row, so a linear scan is simplest and serialization-safe.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the description of the named column.
func (s *Schema) Column(name string) (ColumnDesc, error) {
	if i := s.ColumnIndex(name); i >= 0 {
		return s.Columns[i], nil
	}
	return ColumnDesc{}, fmt.Errorf("table: no column %q", name)
}

// Append returns a new schema with one more column.
func (s *Schema) Append(cd ColumnDesc) *Schema {
	cols := make([]ColumnDesc, len(s.Columns)+1)
	copy(cols, s.Columns)
	cols[len(s.Columns)] = cd
	return NewSchema(cols...)
}

// Names returns the column names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "name:kind, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + ":" + c.Kind.String()
	}
	return strings.Join(parts, ", ")
}

// Equal reports whether two schemas have identical columns in order.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}
