package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// Params scales the experiments. The paper's testbed holds 13 B rows on
// 8 servers; defaults here target one machine and keep the paper's
// *relative* factors (datasets are labelled 1x/5x/10x/100x exactly as
// in §7). Everything can be raised by flag to approach paper scale.
type Params struct {
	// BaseRows is the 1x dataset size (paper: 130 M).
	BaseRows int
	// Cols is the schema width (paper: 110; padding columns are
	// computed so width is cheap).
	Cols int
	// Workers is the number of worker servers (paper: 8).
	Workers int
	// PartsPerWorker is the number of micropartitions per worker.
	PartsPerWorker int
	// WorkerParallelism bounds each worker's leaf thread pool; keeping
	// it fixed lets several in-process workers emulate separate servers.
	WorkerParallelism int
	// Seed drives all data generation.
	Seed uint64
}

// DefaultParams returns laptop-scale defaults.
func DefaultParams() Params {
	return Params{
		BaseRows:          100000,
		Cols:              flights.PaperColumns,
		Workers:           4,
		PartsPerWorker:    8,
		WorkerParallelism: 4,
		Seed:              1,
	}
}

func init() { flights.Register() }

// HVEnv is a running Hillview deployment: in-process TCP workers, a
// root, and a spreadsheet session, with byte accounting at the root.
type HVEnv struct {
	Sheet   *spreadsheet.Sheet
	Cluster *cluster.Cluster
	workers []*cluster.Worker
	pools   []*colstore.Pool // one column pool per worker, as each server has
	params  Params
	mu      sync.Mutex
	views   map[string]*spreadsheet.View
}

// StartHV boots workers and connects the root.
func StartHV(p Params) (*HVEnv, error) {
	return StartHVConfig(p, engine.Config{
		Parallelism:       p.WorkerParallelism,
		AggregationWindow: 10 * time.Millisecond,
	})
}

// StartHVConfig is StartHV with an explicit engine configuration (the
// ablations sweep the aggregation window).
func StartHVConfig(p Params, cfg engine.Config) (*HVEnv, error) {
	env := &HVEnv{params: p, views: make(map[string]*spreadsheet.View)}
	addrs := make([]string, p.Workers)
	for i := 0; i < p.Workers; i++ {
		pool := colstore.NewPool(0)
		w := cluster.NewWorker(storage.NewLoader(cfg, 0, pool))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			env.Close()
			return nil, err
		}
		env.workers = append(env.workers, w)
		env.pools = append(env.pools, pool)
		addrs[i] = addr
	}
	c, err := cluster.Connect(addrs, cfg)
	if err != nil {
		env.Close()
		return nil, err
	}
	env.Cluster = c
	env.Sheet = spreadsheet.New(engine.NewRoot(c.Loader()))
	return env, nil
}

// Close shuts down workers and connections.
func (e *HVEnv) Close() {
	if e.Cluster != nil {
		e.Cluster.Close()
	}
	for _, w := range e.workers {
		w.Close()
	}
}

// flightsSource builds the generator source spec for one scale factor:
// each worker generates BaseRows×scale/Workers rows with a seed derived
// from its index, exactly how the paper scales by replication.
func (e *HVEnv) flightsSource(scale int) string {
	rowsPerWorker := e.params.BaseRows * scale / e.params.Workers
	return fmt.Sprintf("flights:rows=%d,parts=%d,cols=%d,seed=%d00{worker}",
		rowsPerWorker, e.params.PartsPerWorker, e.params.Cols, e.params.Seed)
}

// LoadScale loads (or returns the already loaded) flights dataset at a
// scale factor, named e.g. "flights-5x".
func (e *HVEnv) LoadScale(scale int) (*spreadsheet.View, error) {
	name := fmt.Sprintf("flights-%dx", scale)
	e.mu.Lock()
	v, ok := e.views[name]
	e.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := e.Sheet.Load(context.Background(), name, e.flightsSource(scale))
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.views[name] = v
	e.mu.Unlock()
	return v, nil
}

// DropData evicts a scale's data from every worker (cold-start setup);
// the next access replays the load, which reruns the loader.
func (e *HVEnv) DropData(scale int) {
	e.dropWorkers()
	e.Sheet.Root().DropAll()
	e.mu.Lock()
	e.views = make(map[string]*spreadsheet.View)
	e.mu.Unlock()
}

// dropWorkers drops every worker's datasets and evicts its column
// pool, so the next operation pays for every column it touches. The
// collection lets the files' weak column references (colstore.
// WeakColumns) die with their last holder, so no column survives the
// eviction as the identical object.
func (e *HVEnv) dropWorkers() {
	for _, w := range e.workers {
		w.DropAll()
	}
	for _, p := range e.pools {
		p.EvictAll()
	}
	runtime.GC()
}

// workerSeed reproduces the seed a worker derives from the
// flightsSource template, so in-process baselines see bit-identical
// data.
func workerSeed(p Params, w int) uint64 {
	n, _ := strconv.ParseUint(fmt.Sprintf("%d00%d", p.Seed, w), 10, 64)
	return n
}

// GenScale generates the partitions of a scale factor directly, for the
// Spark baseline and local-engine experiments (the paper ran Spark on
// the same testbed and data).
func GenScale(p Params, scale int) []*table.Table {
	var parts []*table.Table
	rowsPerWorker := p.BaseRows * scale / p.Workers
	for w := 0; w < p.Workers; w++ {
		parts = append(parts, flights.GenPartitions(
			fmt.Sprintf("flights-%dx", scale),
			rowsPerWorker, p.PartsPerWorker, workerSeed(p, w), p.Cols)...)
	}
	return parts
}

// WriteColdShards materializes a scale's data as HVC2 files, one
// directory per worker under <dir>/<scale>x, and returns the source
// template "dir:<dir>/<scale>x/shard-{worker}" for cold loading
// (Figure 6). Each scale has its own files: a loader keeps the files
// it has mapped, so a path rewritten with other data would be served
// stale.
func WriteColdShards(p Params, scale int, dir string) (string, error) {
	dir = filepath.Join(dir, fmt.Sprintf("%dx", scale))
	for w := 0; w < p.Workers; w++ {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%d", w))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return "", err
		}
		rowsPerWorker := p.BaseRows * scale / p.Workers
		parts := flights.GenPartitions(fmt.Sprintf("cold-%dx-w%d", scale, w),
			rowsPerWorker, p.PartsPerWorker, p.Seed*100+uint64(w), flights.CoreColumns)
		for i, t := range parts {
			if err := colstore.WriteHVC2(filepath.Join(shardDir, fmt.Sprintf("part-%03d.hvc", i)), t); err != nil {
				return "", err
			}
		}
	}
	return "dir:" + filepath.Join(dir, "shard-{worker}"), nil
}
