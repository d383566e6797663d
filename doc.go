// Package repro is a from-scratch Go reproduction of Hillview (Budiu et
// al., "Hillview: A trillion-cell spreadsheet for big data", VLDB 2019):
// a distributed spreadsheet built on vizketches — mergeable summaries
// whose precision derives from the display resolution — and a
// specialized execution engine that runs them over trees of workers
// with progressive results, computation caching, and redo-log fault
// tolerance.
//
// The public surface lives in the internal packages (this module is a
// reproduction artifact, not a published library API):
//
//   - internal/table — columnar tables, membership sets, sampling
//   - internal/sketch — the vizketch library
//   - internal/engine — execution trees, caches, redo log
//   - internal/colstore — memory-mapped column store + budgeted pool
//   - internal/cluster — the TCP worker protocol
//   - internal/spreadsheet — the user-facing operations
//   - internal/bench — the paper's evaluation, regenerated
//
// Leaf scans are vectorized end to end ("as fast as the hardware
// allows", paper §6): memberships iterate in spans or bulk-decoded row
// batches, columns expose typed backing storage, and sketches run
// kind-specialized batch kernels. The micropartition (-micro, 250k rows
// by default) is the one scan unit (paper §5.3's leaf): every partition
// is summarized whole, on one thread, by the sketch's Summarize (next-K
// alone chains its pruned scan's accumulators through a worker's
// partitions, sketch.Accumulator.Next), and partition summaries combine
// in a fixed pairwise merge tree (sketch.TreeFold) by partition index.
// A result is a function of the partition list and the sketch alone;
// the leaf workers only claim whole partitions off a shared cursor, so
// thread count and scheduling never show in a result. Progressive partials merge the tree's
// finished nodes and reach the callback serialized on a dedicated
// emission lock. Heavy hitters count dictionary columns by int32 code —
// an exact dense tally pruned once per partition up to 4096 codes, a
// code-keyed Misra–Gries stream above — and materialize Values only at
// result time; equi-width buckets index by the division form on every
// path. Batch scans are bit-identical to the retained row-at-a-time
// reference path — including randomized sketches under a fixed seed,
// via per-partition seeds derived from (seed, partition ID).
// Kernel before/after numbers: BENCH_kernels.json.
//
// Row selection has one kernel too: table.ConstCompare tests a stored
// column's typed slice against a constant and writes bitmap words.
// Expression filters (internal/expr batch-compiles the predicate to
// vector nodes with that primitive at the leaves), the zoom range
// filter (the same compiler, handed a two-comparison tree) and the
// table view's next-K sketch (which uses it to discard, unboxed, every
// row that cannot enter its K-row window) all sit on it, and each is
// tested against a row-at-a-time path: the filters row for row, next-K
// result for result against a boxed scan its tests keep.
// BenchmarkKernelFilter in bench_test.go times both filter paths
// interleaved; BenchmarkKernelNextK times the pruned scan.
//
// A default histogram or CDF samples only where that is the cheaper scan
// (sketch.HistogramExactAboveRate holds the measured crossover and the
// reason). The serving layer (internal/serve) admits every cacheable
// query by one rule — lookup, dedup, batch, scan: it waits for
// companions only behind a dataset that is already busy, and a chart's
// sketches (bars and CDF, a heat map's axis ranges) go down as one
// sketch.MultiSketch, a batch that arrives formed. However queries came
// to share a leaf pass, the engine root stores each member's result in
// the computation cache under the member's own key once the pass
// finishes, answers a MultiSketch whose members are all cached from
// there, and counts a miss for each member that was not.
//
// Leaf column data is evictable soft state served by a memory-mapped
// column store (internal/colstore; paper §3.5, §5.5, §5.7): the HVC2
// file layout stores fixed-width payloads raw, little-endian, and
// 64-byte aligned with a CRC32-C per block, so mapped blocks
// reinterpret in place as the ordinary typed columns the kernels
// already scan — zero decode, zero copy, zero per-scan allocation. A
// budgeted buffer pool (colstore.Pool) materializes columns lazily on
// first touch, pins them for the duration of a scan task, and evicts
// LRU unpinned columns past a configurable budget (workers:
// -pool-budget / HILLVIEW_POOL_BUDGET), releasing OS pages without
// invalidating the mapping, so datasets much larger than RAM scan
// correctly — the testkit pooled differential runs every shipped
// sketch under a budget of ~25% of the data and demands bit-identical
// results to the fully-heap-loaded path. The engine reaches the store
// through engine.LeafSource (lazy partitions, acquired once per scan,
// restricted to the columns a sketch declares via sketch.ColumnUser).
// HVC2 is the one columnar format and the pool the one raw-data cache,
// organized by (source, column) as the paper's data cache is: the one
// loader (storage.NewLoader) serves every .hvc file mapped through a
// pool, its own unlimited one when given none, and a file in any other
// format (HVC1 included) is refused with colstore.ErrNotHVC2.
//
// Datasets grow while users watch (internal/ingest): writers append
// row batches into an open segment that seals into an immutable HVC2
// partition through a write-temp → fsync → rename → fsync(dir) →
// manifest-append+fsync protocol whose final step — a CRC32-C-framed
// record in the dataset manifest — is the atomic commit point. Recovery
// replays the manifest, truncates at the first torn record, verifies
// every referenced partition, and removes orphans, so a crash at any
// instant yields a consistent sealed prefix of what was acknowledged.
// A sealed partition is served like any .hvc file: kept open, its
// columns mapped through the server's pool, so a seal costs the next
// query one new file, not a re-read of the dataset. Each append bumps a dataset generation counter that qualifies the
// engine's computation cache and the scheduler's dedup/batch keys —
// stale entries are invalidated exactly, unaffected datasets keep
// their cache. Standing queries exploit sketch mergeability: a
// registered sketch re-merges only newly sealed partitions into its
// running result instead of rescanning (ingest.Standing).
// cmd/hillview serves this at /api/ingest and /api/standing
// (-ingest-dir), and both servers drain gracefully on SIGTERM —
// in-flight queries finish under a deadline, open segments seal, late
// requests get a clean retryable error. testkit.RunIngest is the
// correctness net: every append-schedule prefix must be bit-identical
// to a from-scratch run, and a crash-point battery replays truncated
// operation sequences proving recovery never loses an acknowledged
// seal nor resurrects an unacknowledged one.
//
// Correctness is guarded by a deterministic chaos harness
// (internal/testkit): from a single seed it generates randomized
// tables over every column kind, missing mask, dictionary size, and
// membership shape (table.GenPartitions), then pushes every shipped
// sketch through three execution topologies — reference
// Summarize+sequential merge, the parallel accumulator engine (re-run
// at pool widths 1, 2, 3 and 8 on the production engine.Config: every
// run must return the same bits), and the real TCP cluster path — and
// asserts agreement under per-sketch oracle
// contracts (testkit's contract switch: exact for deterministic
// sketches, documented error bounds for Misra–Gries and sampling
// sketches). A
// transport seam (cluster.Transport / cluster.FaultScript) then drives
// the distributed path through scripted frame delays, mid-frame
// stalls, duplicated partials, connection cuts, and worker crash
// mid-sketch: non-destructive faults must be invisible, destructive
// ones must surface as errors — never a hang, never a silently wrong
// answer. Wire-facing decoders (the cluster frame codec, the HVC
// reader) carry fuzz targets with checked-in corpora; malformed input
// errors, never panics. CI runs the harness under -race with rotating
// seeds, and every randomized test logs its seed on failure
// (internal/testkit/seedtest).
//
// See README.md to build, test and run it. The subsystem sections of
// ROADMAP.md are the tour of the system, and its open item 17 is the
// record of paper-versus-measured results still to be written. The
// benchmarks in bench_test.go regenerate each evaluation artifact at
// test scale; cmd/hillview-bench runs them at configurable scale.
package repro
