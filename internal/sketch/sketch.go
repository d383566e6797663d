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
// identity — exactly for most sketches, within the error contract for
// Misra–Gries and float folds — partial results can be propagated in
// any order, which is what enables progressive visualization (paper
// §5.3). Final results are additionally bit-reproducible because the
// engine fixes the merge shape and operand order (see TreeFold). Merge
// returns a new summary and leaves its operands alone; a sketch whose
// summary is a dense display-sized matrix (the 2-D histogram, and a
// MultiSketch batching one) also merges in place (InPlaceMerger), which
// only the engine's merge tree uses, on summaries no one else holds.
// There its 2-D histogram matrices are recycled, so a heat map allocates
// them for the summaries alive at once, not once per partition and merge.
//
// Randomized sketches take an explicit Seed and derive per-partition
// seeds from the partition's table ID, so re-running a sketch on the
// same partition is bit-identical. This is the determinism requirement
// of the fault-tolerance design (paper §5.8).
//
// A sketch is its configuration: exported fields and nothing else, all
// of them on the wire, so a worker runs exactly the sketch the root
// built. That holds by construction: the wire codec (codec.go) encodes
// a registered type by walking its exported fields in declaration
// order, and registration refuses a type with any other field. A sketch
// author writes no communication code (paper §5.5). Exact and sampled modes of a vizketch are one type whose Rate
// picks the mode (sampleRate: a rate in (0, 1) samples, any other value
// scans every row) — the histogram behind bars and CDF plots, the 2-D
// histogram, the trellis.
//
// # Batch kernels
//
// The hot sketches (histograms, CDF, hist2d, trellis, heavy hitters,
// range, distinct) scan partitions through batch kernels rather than
// per-row callbacks: membership spans, bitmap member words and gathered
// row batches (see the batch-iteration contract in package table, and
// batch.go for which kernels take words) feed kind-specialized
// inner loops — BucketSpec.BatchIndexer for bucket assignment, typed
// extrema/hash loops, batch value gathering — that read column
// storage directly. There is one driver per scan shape, and sampling is
// a branch inside it: histogramScan (1-D tallies), gridScan (the 2-D
// grid of the heat map, and of the trellis with a group axis) and
// scanValues (table.Value batches) each take the sketch's (rate, seed).
// The bucket kernels map a row to a tally slot (0
// missing, 1 out of range, bucket+2), so a histogram tallies
// tallies[slot]++ and a 2-D histogram cells[x·(By+2)+y]++ with no
// branch; a trellis offsets x by its group slot × (Bx+2), so each group
// tallies into a block of its own. Dictionary columns, and int columns
// whose bucket range spans
// at most intTableMax integers and few enough for the partition
// (months, flight numbers, clock times), find the slot in a value→slot
// table built per partition from the same bucket rule, so a row costs
// one load; doubles and wide int ranges (dates in epoch milliseconds)
// keep the per-row divide, with the spec's width and degenerate cases
// decided once per kernel. Every column has a backing slice (a derived
// column is stored when it is derived), so each kernel has one path per
// column kind and none goes through the Column interface per row. The
// bucket kernels read a span of a masked
// column unmasked and then visit only the set bits of its missing words
// to patch those rows; that is sound because every stored cell indexes
// safely, missing rows included (any float64 or int64 maps to a slot,
// and every dictionary code is in range). Batch scans visit exactly the
// rows the row-at-a-time path visits, in the same order, so results
// (including sampled sketches under a fixed seed) are bit-identical to
// the reference scans, which live in the tests (rowIndexer,
// refHistogram, refHistogram2D, refTrellis). The one kernel
// that is not a transcription of its row-at-a-time rule is Misra–Gries
// over a small dictionary, which tallies instead of streaming (see
// MisraGriesSketch.Summarize). Benchmarks: BenchmarkKernel* in
// bench_test.go; recorded in BENCH_kernels.json.
//
// # Accumulators
//
// The engine summarizes a partition by calling Summarize. The one
// exception is next-K, the only AccumulatorSketch: its scan carries a
// pruning bound from one partition to the next, so the engine folds each
// partition into the Next of the accumulator the worker retired before
// it. Its Summarize is the same pruned scan from a cold start: typed
// compares of the whole sort key against the window's K-th row, level by
// level and only over the rows still tied, reject almost every row
// before it is boxed (nextk.go).
package sketch

import "repro/internal/table"

// Result is a mergeable summary value. Concrete result types are plain
// exported-field structs registered under a wire tag (see codec.go) so
// they can cross the cluster RPC boundary. Results are immutable once
// returned: Merge must not modify its arguments. The one exception is a
// result a TreeFold owns, which an InPlaceMerger may merge into.
type Result any

// Sketch is a mergeable summarization method. Implementations are plain
// data, with no exception: exported configuration fields only, every one
// serialized to remote workers. Their methods are pure: no shared state,
// no goroutines —
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

// InPlaceMerger is an optional Sketch extension for a sketch whose
// summaries are dense and display-sized (the 2-D histogram), where
// allocating a fresh summary per merge costs more than the merge. It
// merges src into dst: the result may reuse dst's storage, src is
// consumed (its storage may be recycled), and the caller uses neither
// afterwards. The result must equal Merge(dst, src) bit for bit.
//
// Only TreeFold.Put calls it, on the inputs and interior nodes the fold
// owns. An implementer's Merge must return storage of its own, never
// an operand's: TreeFold.Snapshot relies on that to copy a node the fold
// may still merge into.
type InPlaceMerger interface {
	MergeInto(dst, src Result) (Result, error)
}

// Accumulator is a fold state whose scan carries state across the
// partitions a worker folds one after another. Add folds tables into it
// in order; the accumulated summary must be exactly the left fold of
// Summarize results with Merge over the same tables, and one Add must
// yield Summarize's summary.
//
// Accumulators are not safe for concurrent use.
type Accumulator interface {
	// Add folds the member rows of one table into the accumulator.
	Add(t *table.Table) error
	// Result returns the final accumulated summary. It may share the
	// accumulator's internal state: the accumulator must not be used
	// after Result is called, except to call Next.
	Result() Result
	// Next returns the accumulator for the partition a worker folds
	// after this one. It starts from the empty summary and may use what
	// the receiver learned (a pruning bound, say) only to skip work: the
	// scan's merged result must not change by a bit, whichever
	// partitions happen to follow one another.
	Next() Accumulator
}

// AccumulatorSketch is an optional Sketch extension for a sketch whose
// scan state is worth more than one partition (next-K's pruning bound).
// The engine chains its accumulators through Next; Summarize and Merge
// remain the semantics (and the wire path).
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
	// the same dataset always produce equal results. An empty key marks
	// a configuration of the type that is not cacheable (a seeded
	// histogram).
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

// TreeFold combines n indexed results with a fixed pairwise merge tree:
// at every level neighbors (2j, 2j+1) merge, left operand first, and an
// odd last node moves up unmerged. The shape is a pure function of n and
// every Merge takes its operands in index order, so the root's bits
// depend on the inputs and their indices only — not on arrival order.
// That, not associativity, is what result determinism rests on: Merge is
// associative only up to the sketch's error contract (Misra–Gries
// counters and float sums differ bit-for-bit between merge orders).
//
// A node merges as soon as both children are final, so the summaries
// held at once are bounded by the subtrees in progress, not by n.
//
// A fold from NewTreeFold owns what it is given: Put hands the input
// over, and for an InPlaceMerger sketch each merge adds the right
// operand into the left one in place and may recycle the right one. A node
// therefore changes whenever a Put completes its sibling, until Result
// returns the root; read the tree only through Snapshot, under the lock
// that serializes Put. MergeTree's fold owns nothing and merges with
// Merge alone. Not safe for concurrent use.
type TreeFold struct {
	sk     Sketch
	into   InPlaceMerger // nil: merge with Merge, leaving every node intact
	levels [][]Result    // levels[l][j]: final but not yet merged upward, else nil
}

// NewTreeFold returns the merge tree for n inputs; it owns each input
// once Put receives it.
func NewTreeFold(sk Sketch, n int) *TreeFold {
	f := newTreeFold(sk, n)
	f.into, _ = sk.(InPlaceMerger)
	return f
}

func newTreeFold(sk Sketch, n int) *TreeFold {
	f := &TreeFold{sk: sk}
	for ; n > 1; n = (n + 1) / 2 {
		f.levels = append(f.levels, make([]Result, n))
	}
	f.levels = append(f.levels, make([]Result, 1))
	return f
}

// Put supplies input i; each index must be supplied exactly once.
func (f *TreeFold) Put(i int, r Result) error {
	for _, row := range f.levels {
		if sib := i ^ 1; sib < len(row) {
			other := row[sib]
			if other == nil {
				row[i] = r
				return nil
			}
			row[sib] = nil
			if sib < i {
				r, other = other, r
			}
			var err error
			if f.into != nil {
				r, err = f.into.MergeInto(r, other)
			} else {
				r, err = f.sk.Merge(r, other)
			}
			if err != nil {
				return err
			}
		}
		i /= 2
	}
	f.levels[len(f.levels)-1][0] = r
	return nil
}

// Pending returns the final-but-unmerged nodes, lowest level first;
// together they cover exactly the inputs supplied so far. They are the
// fold's live nodes: see Snapshot.
func (f *TreeFold) Pending() []Result {
	var out []Result
	for _, row := range f.levels {
		for _, r := range row {
			if r != nil {
				out = append(out, r)
			}
		}
	}
	return out
}

// Snapshot merges the pending nodes into a progressive partial: the
// summary of the inputs supplied so far, sharing no storage a later Put
// may modify. Several nodes merge through MergeTree, whose Merges
// allocate their results; a lone node is copied by merging it with Zero.
// Call it under the lock that serializes Put.
func (f *TreeFold) Snapshot() (Result, error) {
	parts := f.Pending()
	if len(parts) == 1 {
		return f.sk.Merge(f.sk.Zero(), parts[0])
	}
	return MergeTree(f.sk, parts...)
}

// Result returns the root once every input has been supplied (Zero for a
// tree of no inputs).
func (f *TreeFold) Result() Result {
	if r := f.levels[len(f.levels)-1][0]; r != nil {
		return r
	}
	return f.sk.Zero()
}

// MergeTree folds results through the TreeFold of len(results) inputs,
// supplied in index order; for n inputs it needs ⌈log₂ n⌉ dependent
// merges. It merges with Merge alone, so results stay intact.
func MergeTree(sk Sketch, results ...Result) (Result, error) {
	f := newTreeFold(sk, len(results))
	for i, r := range results {
		if err := f.Put(i, r); err != nil {
			return nil, err
		}
	}
	return f.Result(), nil
}
