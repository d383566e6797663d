package table

import (
	"fmt"
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
	code, ok := b.index[v.S]
	if !ok {
		code = int32(len(b.dict))
		b.index[v.S] = code
		b.dict = append(b.dict, v.S)
	}
	b.codes = append(b.codes, code)
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
	missing := b.miss.freeze(len(b.codes))
	return &StringColumn{dict: sorted, codes: b.codes, missing: missing, hasMissing: hasAnyMissing(missing)}
}

// Builder accumulates whole rows and freezes them into a Table.
type Builder struct {
	schema   *Schema
	builders []ColumnBuilder
	rows     int
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
	b.rows++
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
