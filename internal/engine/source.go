package engine

import "repro/internal/table"

// LeafMeta describes one leaf partition of a LeafSource without
// materializing any column data: its stable ID and physical geometry.
// The engine plans a scan — one task per partition — from metadata
// alone, so planning a sketch over a cold dataset reads headers, not
// data.
type LeafMeta struct {
	// ID is the partition's stable identifier (same contract as
	// Table.ID: unique per logical partition, stable across reloads).
	ID string
	// Lo and Hi bound the partition's member rows within the backing
	// column storage; Bound is the physical column length. Partitions
	// served from storage are dense: their membership is exactly the
	// contiguous range [Lo, Hi). A whole-file partition has Lo=0,
	// Hi=Bound=rows.
	Lo, Hi, Bound int
}

// LeafSource supplies leaf partitions on demand. It is how the column
// store's lazy, budgeted buffer pool plugs into the engine: a
// LocalDataSet acquires a partition's columns only while the partition
// actually folds, and releases them as soon as it is done, so the
// resident working set is bounded by the thread pool width — not the
// dataset size.
//
// Contract:
//
//   - Acquire(i, cols) returns partition i as a table whose ID,
//     membership geometry, and cell values are bit-identical on every
//     call (the engine's replay determinism requires it — eviction and
//     re-materialization between calls must be invisible).
//   - cols names the columns whose cell data the caller will read
//     (nil = all). The returned table's schema may be projected to the
//     requested columns; requested names the source does not have are
//     simply absent, so a sketch over a missing column fails with its
//     ordinary "no column" error.
//   - release must be called exactly once when the caller is done with
//     the table; the source unpins the backing columns, making them
//     evictable. References retained past release (derived tables built
//     by Map) must remain readable — the column store guarantees this
//     by releasing pages, never unmapping, on eviction.
//   - A source whose backing data is gone for good should return an
//     error wrapping ErrMissingDataset so the root replays the redo
//     log.
type LeafSource interface {
	// Leaves returns one LeafMeta per partition, in partition order.
	// The slice must be stable for the life of the source.
	Leaves() []LeafMeta
	// Acquire materializes partition i restricted to cols and pins its
	// columns until release is called.
	Acquire(i int, cols []string) (t *table.Table, release func(), err error)
}

// NewLocalSource builds a LocalDataSet whose partitions are served by
// src: scans acquire only the columns the sketch declares
// (sketch.ColumnUser) and hold them only while folding. The scan units
// are the partitions src.Leaves() lists, under their own IDs (which seed
// per-partition sampling), so a source scans exactly as NewLocal over
// the same partition tables and results are bit-identical between the
// two.
func NewLocalSource(id string, src LeafSource, cfg Config) *LocalDataSet {
	return &LocalDataSet{id: id, src: src, leaves: src.Leaves(), cfg: cfg}
}
