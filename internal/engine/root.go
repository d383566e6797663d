package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// ErrMissingDataset reports that a soft-state dataset is gone (evicted,
// or its worker restarted). The root reacts by replaying the redo log
// (paper §5.7: "when the root node attempts to access a remote object on
// a leaf which no longer exists the leaf reports an error; the root node
// then re-executes the query that produced the missing object").
var ErrMissingDataset = errors.New("engine: dataset missing")

// Op is one redo-log record: the description of an operation that
// produced a dataset. The log is the only persistent state of the
// system (paper §5.7); everything else is reconstructable soft state.
type Op struct {
	// Kind is "load" or "map".
	Kind string
	// ID is the produced dataset's identifier.
	ID string
	// Parent is the input dataset ("" for load).
	Parent string
	// Source is the storage-layer source spec (load only).
	Source string
	// Map is the derivation (map only).
	Map MapOp
}

// Loader resolves a load source spec into a dataset; the storage layer
// provides it. It must be able to re-read the same snapshot at any time
// (the storage contract of §2/§5.4).
type Loader func(id, source string) (IDataSet, error)

// Root is the tree root (paper Fig. 1): it owns the redo log, the
// soft-state dataset registry, and the computation cache, and it
// launches execution trees.
type Root struct {
	mu       sync.Mutex
	loader   Loader
	datasets map[string]IDataSet
	log      []Op
	byID     map[string]int // dataset ID -> index in log
	gens     map[string]uint64
	cache    *Cache
	replays  obs.Counter // number of replay executions (for tests/metrics)
}

// NewRoot builds a root node with the given storage loader.
func NewRoot(loader Loader) *Root {
	return &Root{
		loader:   loader,
		datasets: make(map[string]IDataSet),
		byID:     make(map[string]int),
		gens:     make(map[string]uint64),
		cache:    NewCache(0),
	}
}

// GenerationProvider reports the current generation of a dataset: a
// counter that advances whenever the dataset's live contents change
// (e.g. an ingest seal). Static datasets stay at generation 0 forever.
// The serving layer qualifies its dedup and batch keys with it so
// results computed against different live sets never alias.
type GenerationProvider interface {
	DatasetGeneration(id string) uint64
}

// DatasetGeneration implements GenerationProvider.
func (r *Root) DatasetGeneration(id string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gens[id]
}

// Advance bumps a dataset's generation after its underlying source
// changed (an ingest seal): the soft-state instance is dropped — the
// next access re-runs the loader against the new live set — and every
// cached result of any generation of the dataset is invalidated, so
// queries switch to the new contents atomically. Returns the new
// generation. Derived datasets (maps/filters of id) replay lazily when
// their own stale instances are dropped; advancing the source does not
// cascade to them.
func (r *Root) Advance(id string) uint64 {
	r.mu.Lock()
	r.gens[id]++
	gen := r.gens[id]
	delete(r.datasets, id)
	r.mu.Unlock()
	r.cache.InvalidateDataset(id)
	return gen
}

// Cache exposes the computation cache (for stats and tests).
func (r *Root) Cache() *Cache { return r.cache }

// Replays returns how many redo-log replays have executed.
func (r *Root) Replays() int64 { return r.replays.Load() }

// ReplayCounter exposes the replay counter for obs registration.
func (r *Root) ReplayCounter() *obs.Counter { return &r.replays }

// Load reads a dataset from storage and logs the operation.
func (r *Root) Load(id, source string) (IDataSet, error) {
	r.mu.Lock()
	if _, dup := r.byID[id]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("engine: dataset %q already defined", id)
	}
	r.mu.Unlock()

	ds, err := r.loader(id, source)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendOp(Op{Kind: "load", ID: id, Source: source})
	r.datasets[id] = ds
	return ds, nil
}

// Apply derives a new dataset with a map operation and logs it.
func (r *Root) Apply(parentID, newID string, op MapOp) (IDataSet, error) {
	r.mu.Lock()
	if _, dup := r.byID[newID]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("engine: dataset %q already defined", newID)
	}
	r.mu.Unlock()

	parent, err := r.Get(parentID)
	if err != nil {
		return nil, err
	}
	ds, err := parent.Map(op, newID)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appendOp(Op{Kind: "map", ID: newID, Parent: parentID, Map: op})
	r.datasets[newID] = ds
	return ds, nil
}

// Filter derives a new dataset keeping rows that satisfy the predicate
// expression.
func (r *Root) Filter(parentID, newID, predicate string) (IDataSet, error) {
	return r.Apply(parentID, newID, FilterOp{Predicate: predicate})
}

// Derive appends a computed column defined by an expression.
func (r *Root) Derive(parentID, newID, col, expression string) (IDataSet, error) {
	return r.Apply(parentID, newID, DeriveOp{Col: col, Expr: expression})
}

// appendOp records an op; callers hold r.mu.
func (r *Root) appendOp(op Op) {
	r.byID[op.ID] = len(r.log)
	r.log = append(r.log, op)
}

// Get returns the named dataset, replaying the redo log to rebuild it
// (and, recursively, its ancestors) if it is gone. Replay is lazy: only
// the requested lineage is re-executed (paper §5.8: "replaying occurs
// only when the user tries to access a dataset that no longer exists").
func (r *Root) Get(id string) (IDataSet, error) {
	r.mu.Lock()
	if ds, ok := r.datasets[id]; ok {
		r.mu.Unlock()
		return ds, nil
	}
	idx, ok := r.byID[id]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q was never defined", ErrMissingDataset, id)
	}
	op := r.log[idx]
	r.mu.Unlock()
	r.replays.Inc()

	var (
		ds  IDataSet
		err error
	)
	switch op.Kind {
	case "load":
		ds, err = r.loader(op.ID, op.Source)
	case "map":
		// The parent may exist as a stale root-side stub whose worker
		// state is gone; when applying the op reports missing data, drop
		// the stub and rebuild one lineage level deeper.
		const maxReplayDepth = 1000
		for attempt := 0; attempt < maxReplayDepth; attempt++ {
			var parent IDataSet
			parent, err = r.Get(op.Parent) // recursive replay
			if err != nil {
				break
			}
			ds, err = parent.Map(op.Map, op.ID)
			if err == nil || !errors.Is(err, ErrMissingDataset) {
				break
			}
			r.Drop(op.Parent)
		}
	default:
		err = fmt.Errorf("engine: unknown op kind %q in redo log", op.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: replaying %q: %w", id, err)
	}
	r.mu.Lock()
	r.datasets[id] = ds
	r.mu.Unlock()
	r.cache.InvalidateDataset(id)
	return ds, nil
}

// Drop discards the in-memory dataset (but not its log record),
// simulating cache eviction or a worker restart. Subsequent access
// triggers replay.
func (r *Root) Drop(id string) {
	r.mu.Lock()
	delete(r.datasets, id)
	r.mu.Unlock()
}

// DropAll discards every in-memory dataset, simulating a full restart
// where only the redo log survives (paper §5.8).
func (r *Root) DropAll() {
	r.mu.Lock()
	r.datasets = make(map[string]IDataSet)
	r.mu.Unlock()
}

// cacheHit is the computation cache's hit path: on a hit it annotates
// the query's trace and delivers the result as the one completion
// partial. A MultiSketch has no key of its own, but each slot of its
// result is what its member returns alone, so it is a hit exactly when
// every member is — one annotation and one counted hit per member — and
// a miss costs each absent member one counted miss. countMiss is false
// for probes (see Cached).
func (r *Root) cacheHit(ctx context.Context, datasetID string, gen uint64, sk sketch.Sketch, onPartial PartialFunc, countMiss bool) (sketch.Result, bool) {
	members, grouped := sketch.MembersOf(sk)
	keys := make([]string, len(members))
	for i, m := range members {
		keys[i], _ = KeyAt(datasetID, gen, m)
	}
	hits, ok := r.cache.lookupAll(keys, countMiss)
	if !ok {
		return nil, false
	}
	for range hits {
		obs.TraceFrom(ctx).Annotate("engine.cache_hit", "")
	}
	res := hits[0]
	if grouped {
		res = &sketch.MultiResult{Members: hits}
	}
	emit(onPartial, Partial{Result: res, Done: 1, Total: 1})
	return res, true
}

// Cached answers sk over datasetID from the computation cache alone:
// exactly RunSketch's hit path, and on a miss nothing at all — not even
// a counted miss, which the RunSketch that follows will record. The
// serving layer probes it before a query joins a batching window or a
// shared flight, so a repeated view never waits for either.
func (r *Root) Cached(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, bool) {
	return r.cacheHit(ctx, datasetID, r.DatasetGeneration(datasetID), sk, onPartial, false)
}

// RunSketch executes a sketch over a dataset with computation caching
// and missing-dataset recovery. Partial results stream to onPartial.
func (r *Root) RunSketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	tr := obs.TraceFrom(ctx)
	gen := r.DatasetGeneration(datasetID)
	key, cacheable := KeyAt(datasetID, gen, sk)
	if res, ok := r.cacheHit(ctx, datasetID, gen, sk, onPartial, true); ok {
		return res, nil
	}
	ds, err := r.Get(datasetID)
	if err != nil {
		return nil, err
	}
	res, err := ds.Sketch(ctx, sk, onPartial)
	if errors.Is(err, ErrMissingDataset) {
		// A worker lost its soft state mid-query: rebuild and retry once.
		tr.Annotate("engine.replay_retry", datasetID)
		r.Drop(datasetID)
		ds, err = r.Get(datasetID)
		if err != nil {
			return nil, err
		}
		res, err = ds.Sketch(ctx, sk, onPartial)
	}
	if err != nil {
		return nil, err
	}
	// A generation advance mid-query may have replayed the dataset
	// against a newer live set than the key says; cache only when the
	// generation the key names is still current.
	if r.DatasetGeneration(datasetID) == gen {
		if cacheable {
			r.cache.Put(key, res)
		}
		r.publishMembers(datasetID, gen, sk, res)
	}
	return res, nil
}

// publishMembers is the cache put of a scan-sharing pass: a MultiSketch
// is not cacheable itself (its member set is an accident of arrival
// timing), but each member's slot of the result is bit-for-bit what that
// member returns alone, so it goes in under the key the member would
// have had alone and the next repeat of any of them is a hit. Every
// member folds every partition — one abandoned by its caller too — so
// every slot is whole.
func (r *Root) publishMembers(datasetID string, gen uint64, sk sketch.Sketch, res sketch.Result) {
	multi, ok := sk.(*sketch.MultiSketch)
	if !ok {
		return
	}
	mr, ok := res.(*sketch.MultiResult)
	if !ok || len(mr.Members) != len(multi.Sketches) {
		return
	}
	for i, m := range multi.Sketches {
		if key, cacheable := KeyAt(datasetID, gen, m); cacheable {
			r.cache.Put(key, mr.Members[i])
		}
	}
}
