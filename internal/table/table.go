package table

import "fmt"

// Table is an immutable view over columnar storage: a schema, one Column
// per schema entry, and a Membership selecting visible rows. Filtering
// and adding computed columns produce new Tables sharing the same column
// storage, which keeps derived tables cheap and disposable (paper §5.6).
type Table struct {
	id      string
	schema  *Schema
	cols    []Column
	members Membership
}

// New assembles a table. All columns must have the same physical length,
// and the membership bound must match it.
func New(id string, schema *Schema, cols []Column, members Membership) *Table {
	if len(cols) != schema.NumColumns() {
		panic(fmt.Sprintf("table: %d columns for schema of width %d", len(cols), schema.NumColumns()))
	}
	for i, c := range cols {
		if c.Len() != members.Max() {
			panic(fmt.Sprintf("table: column %d has %d rows, membership bound %d", i, c.Len(), members.Max()))
		}
	}
	return &Table{id: id, schema: schema, cols: cols, members: members}
}

// ID returns the table's stable identifier. The engine keys computation
// caches and deterministic sampling seeds off this identifier, so it must
// be unique per logical dataset partition and stable across reloads.
func (t *Table) ID() string { return t.id }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of visible (member) rows.
func (t *Table) NumRows() int { return t.members.Size() }

// Members returns the membership set.
func (t *Table) Members() Membership { return t.members }

// ColumnAt returns the column at schema position i.
func (t *Table) ColumnAt(i int) Column { return t.cols[i] }

// Column returns the named column.
func (t *Table) Column(name string) (Column, error) {
	i := t.schema.ColumnIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table %s: no column %q", t.id, name)
	}
	return t.cols[i], nil
}

// MustColumn is Column but panics on a missing name; for tests and
// call sites that already validated the schema.
func (t *Table) MustColumn(name string) Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// WithMembership returns a view of t with the given membership, sharing
// all column storage. The membership's physical bound must match the
// table's. Callers that already built a restricted membership (for
// example to test whether a row range holds any members before creating
// a scan task) use this instead of re-deriving it through Slice.
func (t *Table) WithMembership(id string, m Membership) *Table {
	if m.Max() != t.members.Max() {
		panic(fmt.Sprintf("table: membership bound %d for table of %d physical rows", m.Max(), t.members.Max()))
	}
	return &Table{id: id, schema: t.schema, cols: t.cols, members: m}
}

// Filter returns a new table with id newID containing the member rows
// for which keep returns true. Column storage is shared.
func (t *Table) Filter(newID string, keep func(row int) bool) *Table {
	return &Table{
		id:      newID,
		schema:  t.schema,
		cols:    t.cols,
		members: FilterMembership(t.members, keep),
	}
}

// WithColumn returns a new table with an extra column appended to the
// schema. The column must have the table's physical length.
func (t *Table) WithColumn(newID, name string, col Column) (*Table, error) {
	if t.schema.ColumnIndex(name) >= 0 {
		return nil, fmt.Errorf("table %s: column %q already exists", t.id, name)
	}
	if col.Len() != t.members.Max() {
		return nil, fmt.Errorf("table %s: new column has %d rows, want %d", t.id, col.Len(), t.members.Max())
	}
	cols := make([]Column, len(t.cols)+1)
	copy(cols, t.cols)
	cols[len(t.cols)] = col
	return &Table{
		id:      newID,
		schema:  t.schema.Append(ColumnDesc{Name: name, Kind: col.Kind()}),
		cols:    cols,
		members: t.members,
	}, nil
}

// GetRow materializes physical row i across all columns.
func (t *Table) GetRow(i int) Row {
	row := make(Row, len(t.cols))
	for c, col := range t.cols {
		row[c] = col.Value(i)
	}
	return row
}

// GetRowCols materializes physical row i for the given column positions.
func (t *Table) GetRowCols(i int, cols []int) Row {
	row := make(Row, len(cols))
	for k, c := range cols {
		row[k] = t.cols[c].Value(i)
	}
	return row
}

// Rows materializes every member row, for tests and small exports. It is
// O(rows × columns); production code paths use sketches instead.
func (t *Table) Rows() []Row {
	out := make([]Row, 0, t.NumRows())
	t.members.Iterate(func(i int) bool {
		out = append(out, t.GetRow(i))
		return true
	})
	return out
}
