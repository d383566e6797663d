// Package colstore is Hillview's memory-mapped column store: leaf
// column data served from disk files under a configurable memory
// budget, so a worker's dataset size is bounded by its disks, not its
// RAM (paper §3.5, §5.5, §5.7 — column data is evictable soft state,
// loaded lazily on first touch and reclaimed under memory pressure,
// with suitable formats served straight from memory-mapped files).
//
// The package has two halves:
//
//   - The HVC2 format (format.go): the repository's one columnar file
//     format, in which every fixed-width payload —
//     int64/date values, float64 values, int32 dictionary codes, and
//     missing bitmaps — is stored raw, little-endian, and 64-byte
//     aligned, so a memory-mapped block reinterprets directly as
//     []int64 / []float64 / []int32 with zero copy (zerocopy.go,
//     mmap_unix.go). Variable-width dictionary bytes live in a
//     per-column dict section and are decoded to the heap on
//     materialization (dictionaries are small relative to data). Every
//     column block carries a CRC32-C, validated on first touch.
//
//   - A budgeted buffer pool (pool.go): Pool tracks resident bytes per
//     materialized column, loads columns lazily on first Acquire, pins
//     them while a scan holds them, and evicts least-recently-used
//     unpinned columns once a configurable budget is exceeded. A
//     column's key is its open File and column index (ColKey), never
//     its path, so a path rewritten between two opens is two sets of
//     columns, and loaders that share a pool never read each other's.
//     Eviction of a mapped column releases its OS pages (madvise
//     MADV_DONTNEED) but keeps the mapping itself valid, so a stale
//     reference held by a derived table remains correct — the pages
//     simply fault back in from the immutable file, so a reloaded
//     column is bit-identical — which is what lets eviction compose
//     with the engine's soft-state replay story.
//
// Materialized columns are the ordinary concrete column types of
// package table (IntColumn, DoubleColumn, StringColumn) whose backing
// slices alias the mapping, so every vectorized sketch kernel — span
// iteration, typed bulk access, batch accumulators — runs unmodified
// on mapped data with no per-scan allocation for fixed-width kinds.
//
// Pool.Acquire takes a loader callback; the storage layer's loader is
// File.Column, so every pooled column is an HVC2 column aliasing its
// file's bytes: a mapping (OpenFile), or an immutable in-memory image
// (NewImageFile, which ingest's in-memory filesystems serve sealed
// partitions with). Wiring into the engine happens in package storage
// (PooledSource implements engine.LeafSource), and it is the one way a
// file's columns reach a scan — loaded files and ingest's sealed
// partitions alike. ReadHVC2Bytes decodes an image onto the heap; only
// tests call it (the independent reference decoder, the fuzz target).
package colstore
