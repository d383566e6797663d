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

// chunkSampleEvery is the scan.chunk span sampling rate: one partition
// fold in this many gets a span on a traced query, enough to show
// per-partition cost without letting a many-partition scan flood the
// span budget.
const chunkSampleEvery = 16

// partialsEmitted counts partial-result deliveries engine-wide (solo
// and pooled paths alike); the hillview binary registers it with the
// obs registry.
var partialsEmitted obs.Counter

// PartialsCounter exposes the engine-wide partial-emission counter for
// obs registration.
func PartialsCounter() *obs.Counter { return &partialsEmitted }

// LocalDataSet holds a dataset's micropartitions on this machine and
// summarizes them with a bounded thread pool (paper §5.3: "to
// parallelize execution within a server, each server runs multiple leaf
// nodes: there is a thread pool that serves leafs with work to do").
//
// The leaf is the micropartition: each partition the source lists is
// one scan unit, folded whole on one thread. Partitions always sit
// behind a LeafSource: the column store's budgeted buffer pool
// (NewLocalSource), which materializes a partition's columns only while
// a scan reads them, or a trivial in-memory one (NewLocal). Both forms
// list the same partitions under the same IDs and return bit-identical
// results.
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
		out[i] = LeafMeta{ID: p.ID(), Hi: max, Bound: max}
	}
	return out
}

func (s tableSource) Acquire(i int, _ []string) (*table.Table, func(), error) {
	return s[i], func() {}, nil
}

// NumLeaves implements IDataSet.
func (d *LocalDataSet) NumLeaves() int { return len(d.leaves) }

func (d *LocalDataSet) parallelism() int {
	p := d.cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// Sketch implements IDataSet. Each partition is one scan unit: one
// Acquire, one summary, and that summary enters a sketch.TreeFold at its
// partition index — so what each summary covers, and the shape and
// operand order of every merge, are functions of (partition list,
// sketch) alone. Threads only decide *when* a partition folds: each
// worker claims the next partition off a shared cursor, so load
// balancing is dynamic and invisible in the result — including for
// merge-order-sensitive sketches such as Misra–Gries. A partition's
// summary is the sketch's Summarize, except for a
// sketch.AccumulatorSketch (next-K): a worker folds each of its
// partitions into the Next of the accumulator it retired before, a
// contract that allows skipping work, never changing the merged result.
//
// Partial results are emitted at most once per aggregation window: the
// emitting worker snapshots the tree's finished nodes under the scan
// lock (sketch.TreeFold.Snapshot: the tree merges its nodes in place, so
// a partial is a copy, never a live node) and invokes onPartial holding
// only the emission lock — a slow partial consumer costs dropped
// partials, never a stalled scan. Which partitions a
// partial covers depends on timing; the completion partial is the
// returned result. Done counts folded partitions. Cancellation stops
// workers from starting further partitions, and a probe threaded into
// each partition's table (WithCancel) stops the running scan itself
// within ~64Ki rows; a panic in sketch code is recovered into the
// query's error instead of crashing the pool's process.
func (d *LocalDataSet) Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	total := len(d.leaves)
	cols := sketch.SketchColumns(sk)
	if total == 0 {
		z := sk.Zero()
		emit(onPartial, Partial{Result: z, Done: 0, Total: 0})
		return z, nil
	}
	nw := min(d.parallelism(), total)

	// mu guards the scan's shared state. A partition's summary enters the
	// tree and the progress count as one step, so a partial never sees
	// one without the other.
	var (
		mu       sync.Mutex
		tree     = sketch.NewTreeFold(sk, total)
		done     int // partitions handed to the tree
		firstErr error
	)
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
	// fresher partial) instead of queueing workers behind the callback.
	// Only the completion emit after wg.Wait takes it blocking: dropped
	// windows are superseded by the final Done==Total partial, never by
	// silence.
	var emitMu sync.Mutex
	// cut returns a consistent (summary, progress) pair, or a nil summary
	// once the scan failed or finished (the completion emit below
	// delivers the one Done==Total partial). The tree merges its nodes in
	// place, so the snapshot is built under mu and shares no storage with
	// them. A closure, so a panicking Merge unwinds through the deferred
	// unlock before the worker's recover reports it.
	cut := func() (sketch.Result, int, error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || done == total {
			return nil, 0, nil
		}
		snap, err := tree.Snapshot()
		return snap, done, err
	}
	maybeEmit := func() {
		if onPartial == nil || !th.allow() || !emitMu.TryLock() {
			return
		}
		defer emitMu.Unlock()
		snap, dn, err := cut()
		if snap == nil || err != nil {
			return // partial emission is best-effort
		}
		partialsEmitted.Inc()
		onPartial(Partial{Result: snap, Done: dn, Total: total})
	}

	// cancelProbe is threaded into every partition table (table.WithCancel)
	// so kernels stop mid-scan, not just between partitions — a large
	// partition would otherwise keep burning a core long after the query
	// was abandoned. A probed scan may truncate silently; that is safe
	// because a fired probe implies ctx.Err() != nil, and the fold is
	// discarded whenever the context is cancelled.
	cancelProbe := func() bool { return ctx.Err() != nil }

	tr := obs.TraceFrom(ctx)
	leafSp := tr.StartSpan("scan.leaf")
	leafNote := "partitions=" + strconv.Itoa(total) + " workers=" + strconv.Itoa(nw)
	// retire hands partition p's summary to the tree. The scan proper ends
	// when the last partition retires; what remains is the merge chain
	// from it up to the root (earlier merges overlapped the scan). A
	// closure, so a panicking Merge unwinds through the deferred unlock
	// before the worker's recover reports it.
	retire := func(p int, res sketch.Result) error {
		mu.Lock()
		defer mu.Unlock()
		done++
		var mergeSp obs.SpanHandle
		if done == total {
			leafSp.EndNote(leafNote)
			mergeSp = tr.StartSpan("merge.tree")
		}
		err := tree.Put(p, res)
		mergeSp.End()
		return err
	}
	// summarize scans one partition on a worker whose last accumulator
	// was prev and returns the partition's summary and the worker's
	// accumulator (nil unless sk is an AccumulatorSketch).
	chain, chained := sk.(sketch.AccumulatorSketch)
	summarize := func(t *table.Table, prev sketch.Accumulator) (sketch.Result, sketch.Accumulator, error) {
		if !chained {
			r, err := sk.Summarize(t)
			return r, nil, err
		}
		var acc sketch.Accumulator
		if prev != nil {
			acc = prev.Next()
		} else {
			acc = chain.NewAccumulator()
		}
		if err := acc.Add(t); err != nil {
			return nil, nil, err
		}
		return acc.Result(), acc, nil
	}
	// fold scans partition p on a worker whose last accumulator was prev,
	// retires its summary and returns the worker's accumulator. The
	// partition is pinned only while it folds, so the resident working
	// set is bounded by the worker pool, not the dataset.
	fold := func(p int, prev sketch.Accumulator) (sketch.Accumulator, error) {
		t, release, err := d.src.Acquire(p, cols)
		if err != nil {
			return nil, err
		}
		defer release()
		// Sampled spans: on a traced query, one partition in
		// chunkSampleEvery records its fold so the trace shows
		// per-partition cost without span-budget blowup. tr is nil on
		// untraced queries, so this is one modulo per partition.
		traced := tr != nil && p%chunkSampleEvery == 0
		var sp obs.SpanHandle
		if traced {
			sp = tr.StartSpan("scan.chunk")
		}
		res, acc, err := summarize(t.WithCancel(cancelProbe), prev)
		if traced {
			sp.EndNote("partition=" + strconv.Itoa(p))
		}
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			// The probe may have truncated this scan mid-stream; never
			// retire or emit from it.
			return nil, err
		}
		return acc, retire(p, res)
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	for range nw {
		wg.Add(1)
		go func() {
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
			var prev sketch.Accumulator // this worker's last folded partition
			for {
				// Cancellation removes enqueued work (paper §5.3): the
				// context is checked before every claim so a cancelled
				// query never starts another partition.
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				p := int(cursor.Add(1)) - 1
				if p >= total {
					return
				}
				var err error
				if prev, err = fold(p, prev); err != nil {
					fail(err)
					return
				}
				maybeEmit()
			}
		}()
	}
	wg.Wait()
	if done < total { // failed or cancelled
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
				t, err = applyRecovered(op, p, DerivePartID(newID, i))
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

// applyRecovered runs op on one partition. A panicking transform (a
// filter or derive evaluates its expression here) fails this Map only,
// as a panicking sketch fails its scan only.
func applyRecovered(op MapOp, p *table.Table, id string) (t *table.Table, err error) {
	defer func() {
		if pe := CapturePanic(recover()); pe != nil {
			err = pe
		}
	}()
	return op.Apply(p, id)
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
