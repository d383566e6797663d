package testkit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// RunPooled extends the differential oracle to the column store: the
// run's generated partitions are written out as HVC2 files and served
// back through two additional topologies over the same files —
//
//	heap:   every file fully decoded onto the heap (the pre-colstore
//	        load path), eager LocalDataSet;
//	pooled: files memory-mapped behind a colstore.Pool whose budget is
//	        ~25% of the on-disk data size, lazy LocalDataSet
//	        (engine.NewLocalSource), so the run constantly evicts and
//	        reloads columns mid-stream.
//
// Contracts enforced for every harness sketch instance:
//
//   - pooled ≡ heap bit-for-bit (reflect.DeepEqual): same files, same
//     partition IDs, same scan geometry, so even sampled and
//     merge-order-sensitive sketches must agree exactly — lazy
//     materialization, mapping, and eviction are invisible.
//   - pooled satisfies the sketch's oracle contract against the
//     reference result over the original (pre-flattening) partitions.
//   - eviction between sketches (Pool.EvictAll) and re-running a
//     sketch after it must reproduce the bit-identical result.
//
// The pool must also report actual eviction churn (the budget is
// genuinely smaller than the data) and zero leaked pins at the end.
func RunPooled(seed uint64) error {
	p := genParams(seed)
	tables, info := table.GenPartitions(p.prefix, seed, p.rows, p.parts)
	cfg := engine.Config{
		Parallelism:       3,
		AggregationWindow: -1,
		ChunkRows:         p.chunk,
	}

	dir, err := os.MkdirTemp("", "hvpool")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Materialize each generated partition as one HVC2 file keeping its
	// partition ID, so per-partition sampling seeds match the heap
	// topology (chunk geometry over the flattened rows is then identical
	// by construction).
	specs := make([]storage.PooledFileSpec, len(tables))
	var totalBytes int64
	for i, t := range tables {
		path := filepath.Join(dir, fmt.Sprintf("p%03d.hvc", i))
		if err := colstore.WriteHVC2(path, t); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		totalBytes += info.Size()
		specs[i] = storage.PooledFileSpec{Path: path, ID: t.ID()}
	}

	// Budget ≈ 25% of the data: the dataset cannot fit, so a full pass
	// must evict and reload columns while scans are still running.
	// HILLVIEW_POOL_BUDGET tightens it further (CI sets it tiny to
	// maximize churn); it never loosens it.
	budget := totalBytes / 4
	if env := storage.PoolBudgetFromEnv(); env > 0 && env < budget {
		budget = env
	}
	if budget < 1 {
		budget = 1
	}
	pool := colstore.NewPool(budget)
	src, err := storage.NewPooledSource(pool, specs, p.rows*2+1)
	if err != nil {
		return err
	}
	defer src.Close()
	pooled := engine.NewLocalSource(datasetID, src, cfg)

	heapParts := make([]*table.Table, len(specs))
	for i, spec := range specs {
		t, err := storage.ReadHVC(spec.Path, spec.ID)
		if err != nil {
			return fmt.Errorf("heap load %s: %w", spec.Path, err)
		}
		heapParts[i] = t
	}
	heap := engine.NewLocal(datasetID, heapParts, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = tracedContext(ctx)
	for i, sk := range instances(seed, info) {
		o, ok := sketch.OracleFor(sk)
		if !ok {
			return fmt.Errorf("%s: no oracle registered", sk.Name())
		}
		ref, err := reference(sk, tables)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", sk.Name(), err)
		}
		heapRes, err := heap.Sketch(ctx, sk, nil)
		if err != nil {
			return fmt.Errorf("%s: heap topology: %w", sk.Name(), err)
		}
		pooledRes, err := pooled.Sketch(ctx, sk, nil)
		if err != nil {
			return fmt.Errorf("%s: pooled topology: %w", sk.Name(), err)
		}
		if !reflect.DeepEqual(heapRes, pooledRes) {
			return fmt.Errorf("%s: pooled result differs from heap-loaded result\n heap   %+v\n pooled %+v",
				sk.Name(), heapRes, pooledRes)
		}
		if err := o.CheckResult(sk, tables, ref, pooledRes); err != nil {
			return fmt.Errorf("%s: pooled vs reference: %w", sk.Name(), err)
		}
		// Eviction transparency: drop everything unpinned between
		// sketches; every third instance also re-runs after the flush
		// and must reproduce its result bit-for-bit.
		pool.EvictAll()
		if i%3 == 0 {
			again, err := pooled.Sketch(ctx, sk, nil)
			if err != nil {
				return fmt.Errorf("%s: pooled rerun after eviction: %w", sk.Name(), err)
			}
			if !reflect.DeepEqual(pooledRes, again) {
				return fmt.Errorf("%s: result changed after eviction\n before %+v\n after  %+v",
					sk.Name(), pooledRes, again)
			}
		}
	}

	err = checkThreadInvariance(ctx, seed, info, p.rows/p.parts, func(cfg engine.Config) *engine.LocalDataSet {
		return engine.NewLocalSource(datasetID, src, cfg)
	})
	if err != nil {
		return fmt.Errorf("pooled topology: %w", err)
	}

	s := pool.Stats()
	if s.Pinned != 0 {
		return fmt.Errorf("pool leaked pins: %v", s)
	}
	if s.Evictions == 0 {
		return fmt.Errorf("no eviction under a %d-byte budget for %d bytes of data: %v", budget, totalBytes, s)
	}
	if s.Budget > 0 && s.Resident > s.Budget {
		return fmt.Errorf("resident bytes exceed budget at rest: %v", s)
	}
	return nil
}
