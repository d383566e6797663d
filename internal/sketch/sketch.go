// Package sketch implements Hillview's vizketches: mergeable summaries
// whose parameters derive from a target display resolution (paper §4).
//
// A vizketch is a pair of functions (summarize, merge) satisfying
//
//	summarize(D1 ⊎ D2) = merge(summarize(D1), summarize(D2))
//
// where summaries are small — their size depends on the description
// length of the visualization (pixels, buckets, colors), never on the
// dataset size. The engine (internal/engine) runs Summarize on every
// partition in parallel and folds results up an execution tree with
// Merge; because Merge is associative and commutative with Zero as
// identity, partial results can be propagated in any order, which is
// what enables progressive visualization (paper §5.3).
//
// Randomized sketches take an explicit Seed and derive per-partition
// seeds from the partition's table ID, so re-running a sketch on the
// same partition is bit-identical. This is the determinism requirement
// of the fault-tolerance design (paper §5.8).
//
// # Batch kernels
//
// The hot sketches (histograms, CDF, hist2d, heavy hitters, range,
// distinct) scan partitions through batch kernels rather than per-row
// callbacks: membership spans and gathered row batches (see the
// batch-iteration contract in package table) feed kind-specialized
// inner loops — BucketSpec.BatchIndexer for bucket assignment, typed
// extrema/hash loops, batch value materialization — that read column
// storage directly with the missing-bitset nil check hoisted out of the
// loop. Batch scans visit exactly the rows the row-at-a-time path
// visits, in the same order, so results (including sampled sketches
// under a fixed seed) are bit-identical to the reference path, which
// remains in the tree as the ComputedColumn fallback. Benchmarks:
// BenchmarkKernel* in bench_test.go; recorded in BENCH_kernels.json.
//
// # Accumulators
//
// The hot sketches additionally implement AccumulatorSketch: a leaf
// worker folds many chunks into one reusable mutable state (Add)
// instead of allocating a Result per chunk and paying Merge each time,
// snapshots it for progressive partials (Snapshot), and surrenders it
// at the end (Result). Per-column scan state — batch indexers,
// dictionary hash tables, the code-keyed Misra–Gries counters — is
// cached across chunks sharing a column. For deterministic sketches the
// accumulated summary equals Summarize+Merge exactly; Misra–Gries may
// differ within its error bound, exactly as merge orders may.
//
// Accumulator sketches: histogram (exact, sampled, CDF), hist2d, range,
// distinct count, heavy hitters (Misra–Gries), the MultiSketch
// composite, and next-K — whose accumulator is not a cheaper fold of
// the same work but a pruned scan: a typed compare of the leading order
// column against the window's K-th key rejects almost every row before
// it is boxed (nextk.go).
package sketch

import "repro/internal/table"

// WholePartition is an optional Sketch extension. The engine may shard
// one partition's scan into row-range chunks and summarize each chunk
// independently (engine.Config.ChunkRows); that is transparent to any
// sketch whose summary depends only on the multiset of scanned rows.
// Sketches whose summaries count or otherwise depend on the partitions
// themselves implement WholePartition to demand exactly one Summarize
// call per partition.
type WholePartition interface {
	// WholePartition is a marker; it is never called.
	WholePartition()
}

// Result is a mergeable summary value. Concrete result types are plain
// exported-field structs registered with encoding/gob (see wire.go) so
// they can cross the cluster RPC boundary. Results are immutable once
// returned: Merge must not modify its arguments.
type Result any

// Sketch is a mergeable summarization method. Implementations are plain
// data (exported configuration fields only) so they serialize to remote
// workers, and their methods are pure: no shared state, no goroutines —
// the engine owns concurrency (paper §5.5: vizketch authors "do not have
// to worry about concurrency, communication, or fault-tolerance").
type Sketch interface {
	// Name identifies the sketch and its parameters; two sketches with
	// equal Name must compute identical results on identical data.
	Name() string
	// Zero returns the identity element for Merge: the summary of an
	// empty dataset.
	Zero() Result
	// Summarize computes the summary of one table partition.
	Summarize(t *table.Table) (Result, error)
	// Merge combines two summaries. It must be associative, commutative,
	// have Zero as identity, and must not mutate a or b.
	Merge(a, b Result) (Result, error)
}

// Accumulator is a reusable mutable fold state for one leaf worker: the
// worker feeds it many partitions or chunks with Add instead of
// allocating a fresh Result per chunk and paying Merge each time. For
// deterministic sketches the accumulated summary must be exactly the
// summary Summarize+Merge would produce over the same chunks;
// approximation sketches (Misra–Gries) may differ within their error
// bound, exactly as different merge orders may.
//
// Accumulators are not safe for concurrent use; the engine gives each
// worker its own and serializes Add/Snapshot with a per-worker lock.
type Accumulator interface {
	// Add folds the member rows of one partition or chunk into the
	// accumulator.
	Add(t *table.Table) error
	// Snapshot returns an immutable Result reflecting every Add so far;
	// the accumulator remains usable. The engine merges snapshots from
	// all workers into each progressive partial result.
	Snapshot() Result
	// Result returns the final accumulated summary. It may share the
	// accumulator's internal state: the accumulator must not be used
	// after Result is called.
	Result() Result
}

// AccumulatorSketch is an optional Sketch extension for sketches with a
// mutable fast-path fold. The engine uses it when present; Summarize
// and Merge remain the reference semantics (and the wire path).
type AccumulatorSketch interface {
	Sketch
	// NewAccumulator returns a fresh accumulator equivalent to Zero.
	NewAccumulator() Accumulator
}

// ColumnUser is an optional Sketch extension declaring which table
// columns Summarize reads. The engine and the column-store loader use
// it to materialize (and page in) only the named columns of a leaf —
// the paper's core storage property: a vizketch touching two columns of
// a 110-column table loads two column blocks, not the whole table
// (§5.4).
//
// The contract: Summarize and the sketch's accumulator may read cell
// data only from the declared columns, though they may freely use the
// table's membership and row counts. A partition handed to the sketch
// may therefore carry a schema projected to (a superset of) the
// declared columns. Sketches that inspect the schema itself
// (MetaSketch) must not implement ColumnUser.
type ColumnUser interface {
	// Columns returns the names of every column Summarize may read.
	// Duplicates are allowed; order is irrelevant.
	Columns() []string
}

// SketchColumns returns the deduplicated declared columns of sk, or
// nil when sk does not declare them (callers must then provide every
// column). A ColumnUser whose Columns() returns nil is treated as
// undeclared too — MultiSketch uses that to say "all columns" when any
// member lacks a declaration.
func SketchColumns(sk Sketch) []string {
	cu, ok := sk.(ColumnUser)
	if !ok {
		return nil
	}
	cols := cu.Columns()
	if cols == nil {
		return nil
	}
	out := make([]string, 0, len(cols))
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Cacheable marks deterministic sketches whose results the engine may
// store in the computation cache (paper §5.4: "useful for mergeable
// summaries that provide auxiliary functionality, such as column
// statistics, which are used repeatedly and are deterministic").
type Cacheable interface {
	Sketch
	// CacheKey returns the cache key; sketches with equal CacheKey on
	// the same dataset always produce equal results.
	CacheKey() string
}

// MergeAll folds a list of results with the sketch's Merge, starting
// from Zero. Convenience for tests and single-node paths.
func MergeAll(sk Sketch, results ...Result) (Result, error) {
	acc := sk.Zero()
	for _, r := range results {
		var err error
		acc, err = sk.Merge(acc, r)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Extend folds one more partition into a running summary: the
// incremental form of MergeAll. Standing queries over a growing dataset
// use it when a new partition is sealed — only the new partition is
// summarized and re-merged into the running result, never the already
// covered data (the mergeability payoff of §4). Because Merge must not
// mutate its arguments, the previous running result stays valid for
// readers that still hold it.
func Extend(sk Sketch, running Result, t *table.Table) (Result, error) {
	s, err := sk.Summarize(t)
	if err != nil {
		return nil, err
	}
	return sk.Merge(running, s)
}

// MergeTree folds a list of results with a pairwise merge tree:
// neighbors merge level by level until one summary remains. Because
// Merge is associative and commutative this equals the sequential fold;
// the engine uses it to combine per-worker accumulator results, and for
// n inputs it needs only ⌈log₂ n⌉ dependent merges.
func MergeTree(sk Sketch, results ...Result) (Result, error) {
	if len(results) == 0 {
		return sk.Zero(), nil
	}
	work := append([]Result(nil), results...)
	for len(work) > 1 {
		next := work[:0]
		for i := 0; i+1 < len(work); i += 2 {
			m, err := sk.Merge(work[i], work[i+1])
			if err != nil {
				return nil, err
			}
			next = append(next, m)
		}
		if len(work)%2 == 1 {
			next = append(next, work[len(work)-1])
		}
		work = next
	}
	return work[0], nil
}
