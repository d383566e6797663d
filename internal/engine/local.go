package engine

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
)

// chunkSampleEvery is the scan.chunk span sampling rate: one chunk in
// this many gets a span on a traced query, enough to show per-chunk
// cost without letting a million-chunk scan flood the span budget.
const chunkSampleEvery = 16

// partialsEmitted counts partial-result deliveries engine-wide (solo
// and pooled paths alike); the hillview binary registers it with the
// obs registry.
var partialsEmitted obs.Counter

// PartialsCounter exposes the engine-wide partial-emission counter for
// obs registration.
func PartialsCounter() *obs.Counter { return &partialsEmitted }

// runChunks is the most consecutive chunk tasks of one partition that
// fold into one accumulator (a run). A constant, never a function of
// the thread count: the set of accumulators decides result bits.
// Smaller runs spread one large partition over more threads, larger
// ones pay per-accumulator column setup (O(dictionary)) less often; 4
// was the knee of both in interleaved runs (CHANGES.md, PR 21).
const runChunks = 4

// LocalDataSet holds a dataset's micropartitions on this machine and
// summarizes them with a bounded thread pool (paper §5.3: "to
// parallelize execution within a server, each server runs multiple leaf
// nodes: there is a thread pool that serves leafs with work to do").
//
// Partitions always sit behind a LeafSource: the column store's budgeted
// buffer pool (NewLocalSource), which materializes a partition's columns
// only while a scan reads them, or a trivial in-memory one (NewLocal).
// The scan plan is built from the source's LeafMeta alone, so both forms
// share one geometry and return bit-identical results.
type LocalDataSet struct {
	id     string
	src    LeafSource
	leaves []LeafMeta // cached src.Leaves()
	cfg    Config
}

// NewLocal wraps in-memory partitions as a local dataset.
func NewLocal(id string, parts []*table.Table, cfg Config) *LocalDataSet {
	return NewLocalSource(id, tableSource(parts), cfg)
}

// tableSource serves resident tables through the LeafSource contract:
// nothing to pin, nothing to project.
type tableSource []*table.Table

func (s tableSource) Leaves() []LeafMeta {
	out := make([]LeafMeta, len(s))
	for i, p := range s {
		max := p.Members().Max()
		out[i] = LeafMeta{ID: p.ID(), Hi: max, Bound: max, Rows: p.NumRows()}
	}
	return out
}

func (s tableSource) Acquire(i int, _ []string) (*table.Table, func(), error) {
	return s[i], func() {}, nil
}

// ID implements IDataSet.
func (d *LocalDataSet) ID() string { return d.id }

// NumLeaves implements IDataSet.
func (d *LocalDataSet) NumLeaves() int { return len(d.leaves) }

// TotalRows returns the number of member rows across partitions, from
// metadata only.
func (d *LocalDataSet) TotalRows() int64 {
	var n int64
	for _, m := range d.leaves {
		n += int64(m.rows())
	}
	return n
}

func (d *LocalDataSet) parallelism() int {
	p := d.cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// leafTask is one unit of leaf-scan work: a whole partition (lo < 0), or
// the fixed physical row range [lo, hi) of a partition that exceeds
// Config.ChunkRows.
type leafTask struct {
	part, lo, hi int
}

// plan shards the partitions into scan tasks for sk and groups them
// into runs: run r is tasks[runs[r]:runs[r+1]], at most runChunks
// consecutive tasks of one partition. Both are a pure function of the
// partition metadata, ChunkRows and whether sk demands whole partitions
// — never of the thread count or of what is resident.
//
// A chunk's table gets the stable ID "<partition>#<start row>", so
// per-chunk sampling seeds derive from (seed, chunk start) via
// sketch.PartitionSeed and replaying the same configuration reproduces
// identical samples (paper §5.8). Sketches that implement
// sketch.WholePartition are never chunked, and neither are partitions
// whose member count (not just physical bound) fits one chunk — a
// heavily filtered partition over a large physical space is one cheap
// scan, not many empty ones; an empty partition still gets its one
// task. Chunks outside the member interval [Lo, Hi) are dropped here;
// chunks inside it that turn out to hold no member (a clustered filter)
// are skipped when their run folds. Neither shifts another chunk's ID.
func (d *LocalDataSet) plan(sk sketch.Sketch) (tasks []leafTask, runs []int) {
	chunk := d.cfg.chunkRows()
	_, whole := sk.(sketch.WholePartition)
	for pi, m := range d.leaves {
		first := len(tasks)
		if whole || m.Bound <= chunk || m.rows() <= chunk {
			tasks = append(tasks, leafTask{part: pi, lo: -1})
		} else {
			for lo := 0; lo < m.Bound; lo += chunk {
				hi := min(lo+chunk, m.Bound)
				if hi > m.Lo && lo < m.Hi {
					tasks = append(tasks, leafTask{part: pi, lo: lo, hi: hi})
				}
			}
		}
		for ; first < len(tasks); first += runChunks {
			runs = append(runs, first)
		}
	}
	return tasks, append(runs, len(tasks))
}

// chunkTable restricts an acquired partition to a task's row range,
// under the chunk's derived ID; nil when the range holds no member row.
func chunkTable(t *table.Table, tk leafTask) *table.Table {
	if tk.lo < 0 {
		return t
	}
	m := table.Restrict(t.Members(), tk.lo, tk.hi)
	if m.Size() == 0 {
		return nil
	}
	return t.WithMembership(t.ID()+"#"+strconv.Itoa(tk.lo), m)
}

// Sketch implements IDataSet. The plan (see plan) cuts the partitions
// into chunk tasks and the tasks into runs. Every run folds, in chunk
// order, into its own accumulator, and finished runs combine through a
// sketch.TreeFold indexed by run — so the set of accumulators, what each
// one folds, and the shape and operand order of every merge are
// functions of (partition metadata, sketch, ChunkRows) alone. Threads
// only decide *when* a run folds: each worker claims the next whole run
// off a shared cursor, acquires its partition once, folds it and hands
// the result to the tree, so load balancing is dynamic and invisible in
// the result — including for merge-order-sensitive sketches such as
// Misra–Gries. (A worker's next accumulator may be the sketch.Successor
// of its last one; that contract allows skipping work, never changing
// the merged result.)
//
// Partial results are emitted at most once per aggregation window: the
// emitting worker merges the tree's finished nodes with a snapshot of
// every run in progress and invokes onPartial holding only the emission
// lock — a slow partial consumer costs dropped partials, never a stalled
// scan. Which runs a partial covers depends on timing; the completion
// partial is the returned result. Done counts fully folded partitions.
// Cancellation stops workers from starting further chunks, and a probe
// threaded into each chunk's table (WithCancel) stops the running chunk
// scan itself within ~64Ki rows; a panic in sketch code is recovered
// into the query's error instead of crashing the pool's process.
func (d *LocalDataSet) Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	total := len(d.leaves)
	cols := sketch.SketchColumns(sk)
	if total == 0 {
		z := sk.Zero()
		emit(onPartial, Partial{Result: z, Done: 0, Total: 0})
		return z, nil
	}
	tasks, runs := d.plan(sk)
	nRuns := len(runs) - 1
	nw := min(d.parallelism(), nRuns)

	// mu guards the scan's shared state. foldMu orders folding against
	// partial emission: workers hold it shared to add a chunk and to
	// retire a run (result into the tree plus progress, as one step), the
	// emitter exclusively to collect — so a partial never sees a
	// half-added chunk, nor a run both in the tree and live, or neither.
	var (
		mu       sync.Mutex
		foldMu   sync.RWMutex
		tree     = sketch.NewTreeFold(sk, nRuns)
		live     = make([]sketch.Accumulator, nw) // each worker's run in progress
		pending  = make([]int, total)             // unfinished runs per partition
		retired  int                              // runs handed to the tree
		done     int                              // fully folded partitions
		firstErr error
	)
	for r := 0; r < nRuns; r++ {
		pending[tasks[runs[r]].part]++
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	th := newThrottle(d.cfg.window())

	// emitMu serializes emissions so Done stays monotone; window emissions
	// take it with TryLock, so while a slow consumer is still inside
	// onPartial later emissions are dropped (the next window re-emits a
	// fresher snapshot) instead of queueing workers behind the callback.
	// Only the completion emit after wg.Wait takes it blocking: dropped
	// windows are superseded by the final Done==Total partial, never by
	// silence.
	var emitMu sync.Mutex
	// collect cuts a consistent (summaries, progress) pair for a partial;
	// ok is false once the scan failed or finished (the completion emit
	// below delivers the one Done==Total partial).
	collect := func() (parts []sketch.Result, dn int, ok bool) {
		foldMu.Lock()
		defer foldMu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || done == total {
			return nil, 0, false
		}
		parts = tree.Pending()
		for _, acc := range live {
			if acc != nil {
				parts = append(parts, acc.Snapshot())
			}
		}
		return parts, done, true
	}
	maybeEmit := func() {
		if onPartial == nil || !th.allow() || !emitMu.TryLock() {
			return
		}
		defer emitMu.Unlock()
		parts, dn, ok := collect()
		if !ok {
			return
		}
		snap, err := sketch.MergeTree(sk, parts...)
		if err != nil {
			return // partial emission is best-effort
		}
		partialsEmitted.Inc()
		onPartial(Partial{Result: snap, Done: dn, Total: total})
	}

	// cancelProbe is threaded into every chunk table (table.WithCancel) so
	// kernels stop mid-chunk, not just between chunks — whole-partition
	// sketches and unchunked configurations would otherwise keep burning
	// cores long after the query was abandoned. A probed scan may
	// truncate silently; that is safe because a fired probe implies
	// ctx.Err() != nil, and the fold is discarded whenever the context is
	// cancelled.
	cancelProbe := func() bool { return ctx.Err() != nil }

	tr := obs.TraceFrom(ctx)
	leafSp := tr.StartSpan("scan.leaf")
	leafNote := "chunks=" + strconv.Itoa(len(tasks)) + " runs=" + strconv.Itoa(nRuns) + " workers=" + strconv.Itoa(nw)
	// The locked steps are closures so a panicking sketch unwinds through
	// their deferred unlocks before the worker's recover reports it.
	add := func(acc sketch.Accumulator, ct *table.Table) error {
		foldMu.RLock()
		defer foldMu.RUnlock()
		return acc.Add(ct.WithCancel(cancelProbe))
	}
	retire := func(wi, r, part int, acc sketch.Accumulator) error {
		foldMu.RLock()
		defer foldMu.RUnlock()
		res := acc.Result() // may mutate acc: not while a partial snapshots it
		mu.Lock()
		defer mu.Unlock()
		live[wi] = nil
		retired++
		// The scan proper ends when the last run retires; what remains
		// is the merge chain from that run up to the root (earlier
		// merges overlapped the scan).
		var mergeSp obs.SpanHandle
		if retired == nRuns {
			leafSp.EndNote(leafNote)
			mergeSp = tr.StartSpan("merge.tree")
		}
		err := tree.Put(r, res)
		mergeSp.End()
		if pending[part]--; pending[part] == 0 {
			done++
		}
		return err
	}
	// foldRun folds run r on worker wi, whose last retired accumulator
	// was prev, retires it into the tree and returns its accumulator. The
	// partition stays pinned for the whole run, so every chunk of a run
	// sees the same column objects and the resident working set is
	// bounded by the worker pool, not the dataset.
	foldRun := func(wi, r int, prev sketch.Accumulator) (sketch.Accumulator, error) {
		first, end := runs[r], runs[r+1]
		part := tasks[first].part
		t, release, err := d.src.Acquire(part, cols)
		if err != nil {
			return nil, err
		}
		defer release()
		acc := sketch.AccumulatorAfter(sk, prev)
		mu.Lock()
		live[wi] = acc
		mu.Unlock()
		for i := first; i < end; i++ {
			ct := chunkTable(t, tasks[i])
			if ct == nil {
				continue
			}
			// Sampled chunk spans: on a traced query, one chunk in
			// chunkSampleEvery records its fold so the trace shows
			// per-chunk cost without span-budget blowup. tr is nil on
			// untraced queries, so this is one modulo on the hot path.
			traceChunk := tr != nil && i%chunkSampleEvery == 0
			var chunkSp obs.SpanHandle
			if traceChunk {
				chunkSp = tr.StartSpan("scan.chunk")
			}
			err := add(acc, ct)
			if traceChunk {
				chunkSp.EndNote("chunk=" + strconv.Itoa(i))
			}
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				// The probe may have truncated this chunk mid-stream;
				// never fold on, retire or emit from it.
				return nil, err
			}
			if i < end-1 {
				maybeEmit()
			}
		}
		return acc, retire(wi, r, part, acc)
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for wi := 0; wi < nw; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// A panicking sketch fails this query only: the recovered
			// panic becomes the scan's first error, the other workers
			// drain out via the firstErr check, and the pool's caller —
			// possibly a long-lived server — keeps running.
			defer func() {
				if pe := CapturePanic(recover()); pe != nil {
					fail(pe)
				}
			}()
			var prev sketch.Accumulator // this worker's last retired run
			for {
				// Cancellation removes enqueued work (paper §5.3): the
				// context is checked before every claim so a cancelled
				// query never starts another run.
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				r := int(cursor.Add(1)) - 1
				if r >= nRuns {
					return
				}
				var err error
				if prev, err = foldRun(wi, r, prev); err != nil {
					fail(err)
					return
				}
				maybeEmit()
			}
		}(wi)
	}
	wg.Wait()
	if retired < nRuns { // failed or cancelled
		leafSp.EndNote(leafNote)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	final := tree.Result()
	// The completion partial blocks on emitMu rather than TryLock: if a
	// worker's trailing window emission is still inside a slow consumer's
	// onPartial, the final Done==Total delivery waits for it instead of
	// racing it, so the last thing every subscriber sees is the complete
	// result. (Workers emit synchronously before wg.Wait returns, so this
	// lock is uncontended today; it pins the ordering against future
	// asynchronous emitters.)
	if onPartial != nil {
		emitMu.Lock()
		partialsEmitted.Inc()
		onPartial(Partial{Result: final, Done: total, Total: total})
		emitMu.Unlock()
	}
	return final, nil
}

// Map implements IDataSet: partitions transform independently and in
// parallel, with stable derived partition IDs so that replay rebuilds
// identical state. Each partition is acquired for the duration of its
// transform; the derived tables are fresh soft state sharing the
// source's column storage, which the column store keeps readable even
// after eviction.
func (d *LocalDataSet) Map(op MapOp, newID string) (IDataSet, error) {
	out := make([]*table.Table, len(d.leaves))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, d.parallelism())
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			p, release, err := d.src.Acquire(i, nil)
			var t *table.Table
			if err == nil {
				t, err = op.Apply(p, DerivePartID(newID, i))
				release()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			out[i] = t
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return NewLocal(newID, out, d.cfg), nil
}

func emit(f PartialFunc, p Partial) {
	if f != nil {
		partialsEmitted.Inc()
		f(p)
	}
}

// throttle rate-limits partial emission to one per window (paper §5.3's
// 0.1 s batching). Completion updates do not go through it.
type throttle struct {
	mu       sync.Mutex
	last     time.Time
	window   time.Duration
	disabled bool
}

func newThrottle(window time.Duration) *throttle {
	return &throttle{window: window, disabled: window < 0}
}

func (t *throttle) allow() bool {
	if t.disabled {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	if now.Sub(t.last) >= t.window {
		t.last = now
		return true
	}
	return false
}
