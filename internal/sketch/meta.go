package sketch

import (
	"fmt"

	"repro/internal/table"
)

// TableMeta is the summary of the metadata sketch: the dataset schema
// and global row counts. Hillview has no other way to inspect data than
// sketches (paper §7.3), so even "what columns exist" is answered by
// one.
type TableMeta struct {
	Schema *table.Schema
	Rows   int64
	Leaves int
}

// MetaSketch reports schema and size. It is deterministic and cheap
// (O(1) per partition), and cached by the engine. Leaves counts one per
// Summarize call, which the engine makes once per partition. It reads
// the schema, not cell data, so it declares no columns (ColumnUser).
type MetaSketch struct{}

// Name implements Sketch.
func (s *MetaSketch) Name() string { return "meta()" }

// CacheKey implements Cacheable.
func (s *MetaSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *MetaSketch) Zero() Result { return &TableMeta{} }

// Summarize implements Sketch.
func (s *MetaSketch) Summarize(t *table.Table) (Result, error) {
	return &TableMeta{Schema: t.Schema(), Rows: int64(t.NumRows()), Leaves: 1}, nil
}

// Merge implements Sketch.
func (s *MetaSketch) Merge(a, b Result) (Result, error) {
	ma, ok1 := a.(*TableMeta)
	mb, ok2 := b.(*TableMeta)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: meta merge got %T and %T", a, b)
	}
	switch {
	case ma.Schema == nil:
		return &TableMeta{Schema: mb.Schema, Rows: ma.Rows + mb.Rows, Leaves: ma.Leaves + mb.Leaves}, nil
	case mb.Schema == nil:
		return &TableMeta{Schema: ma.Schema, Rows: ma.Rows + mb.Rows, Leaves: ma.Leaves + mb.Leaves}, nil
	case !ma.Schema.Equal(mb.Schema):
		return nil, fmt.Errorf("sketch: partitions disagree on schema: %v vs %v", ma.Schema, mb.Schema)
	default:
		return &TableMeta{Schema: ma.Schema, Rows: ma.Rows + mb.Rows, Leaves: ma.Leaves + mb.Leaves}, nil
	}
}
