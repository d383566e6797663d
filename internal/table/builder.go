package table

import (
	"fmt"
	"slices"
	"sort"
)

// ColumnBuilder accumulates values for one column and freezes them into
// an immutable Column. Builders are single-goroutine; each loader shard
// uses its own.
type ColumnBuilder interface {
	// Append adds one value. The value kind must match the builder kind.
	Append(v Value)
	// AppendMissing adds one missing value.
	AppendMissing()
	// Len returns the number of values appended so far.
	Len() int
	// Freeze returns the immutable column. The builder must not be used
	// afterwards.
	Freeze() Column
	// appendColumn adds every physical row of c, a column of the
	// builder's kind, in storage order.
	appendColumn(c Column)
	// grow makes room for n more values.
	grow(n int)
}

// NewColumnBuilder returns a builder for the given kind with capacity
// hint n.
func NewColumnBuilder(kind Kind, n int) ColumnBuilder {
	switch kind {
	case KindInt, KindDate:
		return &intBuilder{kind: kind, vals: make([]int64, 0, n)}
	case KindDouble:
		return &doubleBuilder{vals: make([]float64, 0, n)}
	case KindString:
		return newStringBuilder(n)
	default:
		panic(fmt.Sprintf("table: no builder for kind %v", kind))
	}
}

type missingTracker struct {
	rows []int // indexes of missing rows, in append order
}

func (m *missingTracker) add(i int) { m.rows = append(m.rows, i) }

// addMask records the rows of missing, shifted by base.
func (m *missingTracker) addMask(base int, missing *Bitset) {
	missing.Iterate(func(i int) bool {
		m.add(base + i)
		return true
	})
}

func (m *missingTracker) freeze(n int) *Bitset {
	if len(m.rows) == 0 {
		return nil
	}
	b := NewBitset(n)
	for _, i := range m.rows {
		b.Set(i)
	}
	return b
}

type intBuilder struct {
	kind Kind
	vals []int64
	miss missingTracker
}

func (b *intBuilder) Append(v Value) {
	if v.Missing {
		b.AppendMissing()
		return
	}
	b.vals = append(b.vals, v.I)
}

func (b *intBuilder) AppendMissing() {
	b.miss.add(len(b.vals))
	b.vals = append(b.vals, 0)
}

func (b *intBuilder) Len() int { return len(b.vals) }

func (b *intBuilder) grow(n int) { b.vals = slices.Grow(b.vals, n) }

func (b *intBuilder) appendColumn(c Column) {
	ic := c.(*IntColumn)
	base := len(b.vals)
	b.vals = append(b.vals, ic.vals...)
	b.miss.addMask(base, ic.missing)
}

func (b *intBuilder) Freeze() Column {
	return NewIntColumn(b.kind, b.vals, b.miss.freeze(len(b.vals)))
}

type doubleBuilder struct {
	vals []float64
	miss missingTracker
}

func (b *doubleBuilder) Append(v Value) {
	if v.Missing {
		b.AppendMissing()
		return
	}
	b.vals = append(b.vals, v.D)
}

func (b *doubleBuilder) AppendMissing() {
	b.miss.add(len(b.vals))
	b.vals = append(b.vals, 0)
}

func (b *doubleBuilder) Len() int { return len(b.vals) }

func (b *doubleBuilder) grow(n int) { b.vals = slices.Grow(b.vals, n) }

func (b *doubleBuilder) appendColumn(c Column) {
	dc := c.(*DoubleColumn)
	base := len(b.vals)
	b.vals = append(b.vals, dc.vals...)
	b.miss.addMask(base, dc.missing)
}

func (b *doubleBuilder) Freeze() Column {
	return NewDoubleColumn(b.vals, b.miss.freeze(len(b.vals)))
}

type stringBuilder struct {
	index map[string]int32 // value -> provisional code
	dict  []string         // provisional dictionary, insertion order
	codes []int32
	miss  missingTracker
}

func newStringBuilder(n int) *stringBuilder {
	return &stringBuilder{
		index: make(map[string]int32),
		codes: make([]int32, 0, n),
	}
}

func (b *stringBuilder) Append(v Value) {
	if v.Missing {
		b.AppendMissing()
		return
	}
	b.codes = append(b.codes, b.intern(v.S))
}

// intern returns the provisional code of s, adding it to the dictionary
// when it is new.
func (b *stringBuilder) intern(s string) int32 {
	code, ok := b.index[s]
	if !ok {
		code = int32(len(b.dict))
		b.index[s] = code
		b.dict = append(b.dict, s)
	}
	return code
}

func (b *stringBuilder) grow(n int) { b.codes = slices.Grow(b.codes, n) }

// appendBytes adds the string spelled by p, copying p only when the
// value is new to the dictionary.
func (b *stringBuilder) appendBytes(p []byte) {
	code, ok := b.index[string(p)]
	if !ok {
		code = b.intern(string(p))
	}
	b.codes = append(b.codes, code)
}

// appendColumn remaps c's dictionary into the builder's once, then
// appends the remapped codes.
func (b *stringBuilder) appendColumn(c Column) {
	sc := c.(*StringColumn)
	remap := make([]int32, len(sc.dict))
	for code, s := range sc.dict {
		remap[code] = b.intern(s)
	}
	b.grow(len(sc.codes))
	for i, code := range sc.codes {
		if sc.missing.Get(i) {
			b.AppendMissing()
		} else {
			b.codes = append(b.codes, remap[code])
		}
	}
}

func (b *stringBuilder) AppendMissing() {
	b.miss.add(len(b.codes))
	b.codes = append(b.codes, 0)
}

func (b *stringBuilder) Len() int { return len(b.codes) }

// Freeze sorts the dictionary and remaps codes so that code order equals
// lexicographic order, making Compare an integer subtraction. An
// all-missing column has an empty dictionary; its placeholder codes stay
// zero and are shadowed by the missing mask.
func (b *stringBuilder) Freeze() Column {
	sorted := make([]string, len(b.dict))
	copy(sorted, b.dict)
	sort.Strings(sorted)
	if len(sorted) > 0 {
		remap := make([]int32, len(b.dict))
		for newCode, s := range sorted {
			remap[b.index[s]] = int32(newCode)
		}
		for i, c := range b.codes {
			b.codes[i] = remap[c]
		}
	}
	return &StringColumn{dict: sorted, codes: b.codes, missing: maskOrNil(b.miss.freeze(len(b.codes)))}
}

// Builder accumulates rows and freezes them into a Table. A row arrives
// whole (AppendRow), cell by cell (AppendInt, AppendDouble, AppendString,
// AppendMissing: one cell per column, in any order), or as every row of
// a frozen table (AppendTable).
type Builder struct {
	schema   *Schema
	builders []ColumnBuilder
}

// NewBuilder returns a table builder for the schema with row-capacity
// hint n.
func NewBuilder(schema *Schema, n int) *Builder {
	bs := make([]ColumnBuilder, schema.NumColumns())
	for i, cd := range schema.Columns {
		bs[i] = NewColumnBuilder(cd.Kind, n)
	}
	return &Builder{schema: schema, builders: bs}
}

// AppendRow adds one row; len(row) must equal the schema width.
func (b *Builder) AppendRow(row Row) {
	if len(row) != len(b.builders) {
		panic(fmt.Sprintf("table: row width %d != schema width %d", len(row), len(b.builders)))
	}
	for i, v := range row {
		b.builders[i].Append(v)
	}
}

// Grow makes room for n more rows.
func (b *Builder) Grow(n int) {
	for _, cb := range b.builders {
		cb.grow(n)
	}
}

// AppendInt adds v to column col, of kind KindInt or KindDate (epoch
// milliseconds).
func (b *Builder) AppendInt(col int, v int64) {
	ib := b.builders[col].(*intBuilder)
	ib.vals = append(ib.vals, v)
}

// AppendDouble adds v to column col, of kind KindDouble.
func (b *Builder) AppendDouble(col int, v float64) {
	db := b.builders[col].(*doubleBuilder)
	db.vals = append(db.vals, v)
}

// AppendString adds the string spelled by p to column col, of kind
// KindString. p is copied only when its value is new to the column, so
// a caller may pass a view of a buffer it reuses.
func (b *Builder) AppendString(col int, p []byte) {
	b.builders[col].(*stringBuilder).appendBytes(p)
}

// AppendMissing adds a missing cell to column col.
func (b *Builder) AppendMissing(col int) { b.builders[col].AppendMissing() }

// AppendTable adds every row of t, a table of b's schema whose every
// physical row is a member, column by column: int and double columns
// copy their slices, and a string column remaps its dictionary once.
func (b *Builder) AppendTable(t *Table) {
	if !t.schema.Equal(b.schema) {
		panic(fmt.Sprintf("table: appending a table of schema %v to a builder of %v", t.schema, b.schema))
	}
	if t.NumRows() != t.members.Max() {
		panic(fmt.Sprintf("table: appending %d member rows of %d physical", t.NumRows(), t.members.Max()))
	}
	for i, cb := range b.builders {
		cb.appendColumn(t.cols[i])
	}
}

// Freeze returns the immutable table with full membership and the given
// identifier. The builder must not be used afterwards.
func (b *Builder) Freeze(id string) *Table {
	cols := make([]Column, len(b.builders))
	n := -1
	for i, cb := range b.builders {
		cols[i] = cb.Freeze()
		if n == -1 {
			n = cols[i].Len()
		} else if cols[i].Len() != n {
			panic("table: ragged columns at Freeze")
		}
	}
	if n < 0 {
		n = 0
	}
	return New(id, b.schema, cols, FullMembership(n))
}
