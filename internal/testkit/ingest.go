package testkit

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/table"
)

// RunIngest is the streaming-ingestion correctness battery: from one
// seed it drives the crash-safe ingest path (internal/ingest) through
// two oracles.
//
// # Prefix identity
//
// A generated partitioned table is appended batch by batch into an
// ingest dataset served through the full query stack — ingest.Store
// loader, engine.Root (computation cache, generation counter advanced
// by the seal hook), serve.Scheduler (generation-qualified dedup).
// After every seal, each harness sketch runs through the stack and must
// be bit-identical (reflect.DeepEqual) to the reference fold —
// Summarize + sequential MergeAll — over the dataset's own sealed
// prefix, re-loaded from disk. Standing queries registered up front and
// mid-stream must match the same reference at every step: incremental
// re-merge must be indistinguishable from recomputation.
//
// # Crash battery
//
// The same scripted run is repeated on a recording filesystem
// (ingest.CrashFS); then, for every prefix of the recorded operation
// sequence and every persistence policy (kill, power cut, torn), the
// simulated post-crash image is recovered and must satisfy the sealing
// contract: a contiguous live prefix 1..n containing every acknowledged
// seal, recovered partitions byte-identical to the sealed originals, no
// orphan or temp file, and a working dataset afterwards (append + seal
// + queries matching the reference fold over the recovered prefix). A
// recovery error, a torn partition exposed to a query, or a lost
// acknowledged seal fails the run.
func RunIngest(seed uint64) error {
	if err := runIngestPrefixIdentity(seed); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	if err := runIngestCrashBattery(seed); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// ingestSketches are the battery's query set: deterministic sketches
// whose merges are exact (integer counts, set unions, extrema), so
// every topology — engine merge trees, standing-query incremental
// folds — must reproduce the sequential reference fold bit for bit.
func ingestSketches(info table.GenInfo) map[string]sketch.Sketch {
	return map[string]sketch.Sketch{
		"hist-gd": &sketch.HistogramSketch{Col: "gd",
			Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 16)},
		"hist-gi": &sketch.HistogramSketch{Col: "gi",
			Buckets: sketch.NumericBuckets(table.KindInt, float64(info.IntLo), float64(info.IntHi), 8)},
		"hist-gi-zoom": &sketch.HistogramSketch{Col: "gi", Buckets: intZoom(info)},
		"distinct-gs":  &sketch.DistinctCountSketch{Col: "gs"},
		"range-gd":     &sketch.RangeSketch{Col: "gd"},
	}
}

// physicalRows materializes each batch's member rows over its physical
// columns (GenSchema), the rows /api/ingest hands to AppendRows: an
// ingest dataset stores physical columns only, and computed columns are
// derived after load, not ingested.
func physicalRows(batches []*table.Table) [][]table.Row {
	cols := make([]int, table.GenSchema.NumColumns())
	out := make([][]table.Row, len(batches))
	for i, b := range batches {
		for c, cd := range table.GenSchema.Columns {
			cols[c] = b.Schema().ColumnIndex(cd.Name)
		}
		b.Members().Iterate(func(row int) bool {
			out[i] = append(out[i], b.GetRowCols(row, cols))
			return true
		})
	}
	return out
}

func runIngestPrefixIdentity(seed uint64) error {
	p := genParams(seed)
	parts, info := table.GenPartitions(p.prefix, seed, p.rows, p.parts)
	batches := physicalRows(parts)
	sks := ingestSketches(info)
	cfg := engine.Config{Parallelism: 3, AggregationWindow: -1}

	// The serving stack: store -> root (loader + generation) ->
	// scheduler. The seal hook advances the dataset's generation exactly
	// as the hillview binary wires it.
	var root *engine.Root
	fs := ingest.NewMemFS()
	st := ingest.NewStore("root", ingest.StoreConfig{FS: fs, SegmentRows: -1,
		OnSeal: func(name string, _ ingest.Partition) {
			if root != nil {
				root.Advance(name)
			}
		}})
	defer st.Close()
	ds, err := st.Create(datasetID, table.GenSchema)
	if err != nil {
		return err
	}
	root = engine.NewRoot(st.WrapLoader(nil, cfg))
	if _, err := root.Load(datasetID, ingest.SourcePrefix+datasetID); err != nil {
		return err
	}
	sched := serve.New(root, serve.Config{MaxInFlight: 4, Deadline: runTimeout})

	ctx, cancel := context.WithTimeout(tracedContext(context.Background()), runTimeout)
	defer cancel()

	// Standing queries: every sketch registered up front; one more
	// (hist-gd) registered mid-stream to exercise catch-up.
	standing := map[string]*ingest.StandingQuery{}
	for name, sk := range sks {
		q, err := ds.Register(sk)
		if err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
		standing[name] = q
	}
	var midStream *ingest.StandingQuery

	checkStep := func(step int) error {
		loaded, err := ds.Load()
		if err != nil {
			return err
		}
		for name, sk := range sks {
			want, err := reference(sk, loaded)
			if err != nil {
				return err
			}
			// Twice through the scheduler: the second run exercises the
			// generation-qualified computation cache.
			for pass := 0; pass < 2; pass++ {
				got, err := sched.RunSketch(ctx, datasetID, sk, nil)
				if err != nil {
					return fmt.Errorf("step %d %s pass %d: %w", step, name, pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("step %d %s pass %d: engine result differs from reference fold over the sealed prefix\n got: %+v\nwant: %+v",
						step, name, pass, got, want)
				}
			}
			res, upTo, err := standing[name].Result()
			if err != nil {
				return fmt.Errorf("step %d standing %s: %w", step, name, err)
			}
			if int(upTo) != step {
				return fmt.Errorf("step %d standing %s: covers seq %d", step, name, upTo)
			}
			if !reflect.DeepEqual(res, want) {
				return fmt.Errorf("step %d standing %s: incremental result differs from reference fold\n got: %+v\nwant: %+v",
					step, name, res, want)
			}
		}
		if midStream != nil {
			res, _, err := midStream.Result()
			if err != nil {
				return err
			}
			want, err := reference(midStream.Sketch(), loaded)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(res, want) {
				return fmt.Errorf("step %d mid-stream standing query differs from reference", step)
			}
		}
		return nil
	}

	if err := checkStep(0); err != nil {
		return err
	}
	// sealed counts actual seals: an empty generated batch makes Seal a
	// no-op, which must not advance the expected standing-query position.
	sealed := 0
	for i, batch := range batches {
		if err := ds.AppendRows(ctx, batch); err != nil {
			return fmt.Errorf("append %d: %w", i, err)
		}
		p, err := ds.Seal(ctx)
		if err != nil {
			return fmt.Errorf("seal %d: %w", i, err)
		}
		if p != nil {
			sealed++
		}
		if i == 0 {
			if midStream, err = ds.Register(sks["hist-gd"]); err != nil {
				return err
			}
		}
		if err := checkStep(sealed); err != nil {
			return err
		}
	}
	return nil
}

func runIngestCrashBattery(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	rows := 60 + int(rng.Uint64()%120)
	parts := 3 + int(rng.Uint64()%3)
	gen, info := table.GenPartitions(fmt.Sprintf("ic%d", seed), seed^1, rows, parts)
	batches := physicalRows(gen)
	sk := ingestSketches(info)["hist-gd"]
	dir := "root/" + datasetID

	// Scripted run on the recording filesystem. ackOps[i] is the
	// operation count at which seal i+1 was acknowledged to the caller.
	cfs := ingest.NewCrashFS()
	d, err := ingest.Create(dir, table.GenSchema, ingest.Config{FS: cfs, SegmentRows: -1})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(tracedContext(context.Background()), runTimeout)
	defer cancel()
	var (
		ackOps    []int
		sealBytes [][]byte
	)
	for i, batch := range batches {
		if err := d.AppendRows(ctx, batch); err != nil {
			return fmt.Errorf("append %d: %w", i, err)
		}
		p, err := d.Seal(ctx)
		if err != nil {
			return fmt.Errorf("seal %d: %w", i, err)
		}
		if p != nil { // empty batch: Seal is a no-op, nothing was acknowledged
			ackOps = append(ackOps, cfs.Ops())
			data, err := cfs.ReadFile(filepath.Join(dir, p.Name))
			if err != nil {
				return err
			}
			sealBytes = append(sealBytes, data)
		}
	}
	total := cfs.Ops()

	policies := []struct {
		name   string
		policy ingest.CrashPolicy
		salts  []uint64
	}{
		{"keepall", ingest.CrashKeepAll, []uint64{0}},
		{"dropunsynced", ingest.CrashDropUnsynced, []uint64{0}},
		{"torn", ingest.CrashTorn, []uint64{seed, seed ^ 0xdeadbeef}},
	}
	for k := 0; k <= total; k++ {
		for _, pol := range policies {
			for _, salt := range pol.salts {
				img := cfs.SimulateCrash(k, pol.policy, salt)
				// Run the full query check on a rotating subsample of crash
				// points (it re-runs an engine scan); the structural recovery
				// contract is enforced at every point.
				deep := (k+int(salt))%7 == 0 || k == total
				if err := checkIngestRecovery(img, dir, k, ackOps, sealBytes, sk, deep); err != nil {
					return fmt.Errorf("crash after op %d/%d (%s, %s, salt %d): %w",
						k, total, cfs.DescribeOp(k-1), pol.name, salt, err)
				}
			}
		}
	}
	return nil
}

// checkIngestRecovery recovers one crash image and enforces the sealing
// contract; with deep set it additionally queries the recovered dataset
// through an engine root and compares against the reference fold.
func checkIngestRecovery(img *ingest.MemFS, dir string, k int, ackOps []int,
	sealBytes [][]byte, sk sketch.Sketch, deep bool) error {
	minLive := 0
	for _, at := range ackOps {
		if at <= k {
			minLive++
		}
	}
	d, err := ingest.Open(dir, ingest.Config{FS: img, SegmentRows: -1})
	if err != nil {
		if minLive > 0 {
			return fmt.Errorf("recovery failed with %d acknowledged seals: %w", minLive, err)
		}
		return nil // no seal acknowledged: "no dataset" is a legal outcome
	}
	defer d.Close()

	parts := d.Partitions()
	if len(parts) < minLive || len(parts) > len(sealBytes) {
		return fmt.Errorf("recovered %d partitions, want between %d and %d", len(parts), minLive, len(sealBytes))
	}
	for i, p := range parts {
		if p.Seq != uint64(i+1) {
			return fmt.Errorf("live set not contiguous at %d: seq %d", i, p.Seq)
		}
		data, err := img.ReadFile(filepath.Join(dir, p.Name))
		if err != nil {
			return err
		}
		if !bytes.Equal(data, sealBytes[i]) {
			return fmt.Errorf("partition %s differs from the sealed original", p.Name)
		}
	}
	names, err := img.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(names) != len(parts)+1 {
		return fmt.Errorf("directory holds %d files for %d live partitions: %v", len(names), len(parts), names)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			return fmt.Errorf("temp file %q survived recovery", name)
		}
	}
	if !deep {
		return nil
	}

	// The recovered dataset serves queries: engine scan over the live
	// set must match the reference fold over the same loaded partitions.
	loaded, err := d.Load()
	if err != nil {
		return err
	}
	want, err := reference(sk, loaded)
	if err != nil {
		return err
	}
	cfg := engine.Config{Parallelism: 2, AggregationWindow: -1}
	ds := engine.NewLocal(datasetID, loaded, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	got, err := ds.Sketch(ctx, sk, nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("query over recovered prefix differs from reference fold")
	}
	// And it keeps ingesting: one more append + seal.
	extra, _ := table.GenPartitions("post", 7, 16, 1)
	if err := d.AppendRows(ctx, physicalRows(extra)[0]); err != nil {
		return fmt.Errorf("append after recovery: %w", err)
	}
	p, err := d.Seal(ctx)
	if err != nil {
		return fmt.Errorf("seal after recovery: %w", err)
	}
	if p != nil && p.Seq != uint64(len(parts))+1 {
		return fmt.Errorf("post-recovery seal seq %d, want %d", p.Seq, len(parts)+1)
	}
	return nil
}
