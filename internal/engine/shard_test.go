package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

// shardParts builds partitions whose physical row counts exceed the test
// chunk size, including filtered (bitmap/sparse membership) partitions.
// Data derives from the test's seedtest seed: deterministic by default,
// explorable via HILLVIEW_TEST_SEED, and logged on failure so any CI
// failure replays locally. Assertions in these tests are structural
// (task counts, ID schemes, equivalences), so they hold for every seed.
func shardParts(t *testing.T) []*table.Table {
	parts := genParts("sh", 3, 10000, seedtest.Seed(t))
	// A dense filtered partition (bitmap membership) and a sparse one.
	dense := parts[1].Filter("sh-p1/f", func(row int) bool {
		return parts[1].MustColumn("x").Double(row) < 80
	})
	sparse := parts[2].Filter("sh-p2/f", func(row int) bool {
		return row%40 == 0
	})
	return []*table.Table{parts[0], dense, sparse}
}

// TestShardedScanMatchesUnsharded proves that chunked leaf scans fold to
// the identical result for exact sketches, across membership shapes.
func TestShardedScanMatchesUnsharded(t *testing.T) {
	parts := shardParts(t)
	whole := NewLocal("w", parts, Config{AggregationWindow: -1, ChunkRows: -1})
	sharded := NewLocal("w", parts, Config{AggregationWindow: -1, ChunkRows: 512})
	sketches := []sketch.Sketch{
		histSketch(),
		&sketch.RangeSketch{Col: "x"},
		&sketch.DistinctCountSketch{Col: "g"},
		&sketch.CDFSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 40)},
		&sketch.Histogram2DSketch{
			XCol: "x", YCol: "g",
			X: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
			Y: sketch.StringBucketsFromBounds([]string{"even", "odd"}, true),
		},
	}
	for _, sk := range sketches {
		want, err := whole.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded scan differs from unsharded\n got %+v\nwant %+v", sk.Name(), got, want)
		}
	}
}

// TestShardedSampledDeterminism proves that randomized sketches stay
// replay-deterministic under sharding: per-chunk seeds derive from
// (seed, chunk start), so the same configuration reproduces the same
// result, and the total sample size stays consistent with the rate.
func TestShardedSampledDeterminism(t *testing.T) {
	parts := shardParts(t)
	ds := NewLocal("sd", parts, Config{AggregationWindow: -1, ChunkRows: 777})
	sk := &sketch.SampledHistogramSketch{
		Col:     "x",
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
		Rate:    0.2,
		Seed:    42,
	}
	a, err := ds.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ds.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("sharded sampled sketch not deterministic across runs")
	}
	ha := a.(*sketch.Histogram)
	var members int64
	for _, p := range parts {
		members += int64(p.NumRows())
	}
	if ha.SampledRows < int64(float64(members)*0.15) || ha.SampledRows > int64(float64(members)*0.25) {
		t.Errorf("sampled %d of %d member rows, want ~20%%", ha.SampledRows, members)
	}
}

// TestShardedPartialAccounting checks that Done counts fully merged
// partitions (not chunks) and reaches Total exactly at the end.
func TestShardedPartialAccounting(t *testing.T) {
	parts := shardParts(t)
	ds := NewLocal("pa", parts, Config{AggregationWindow: 1, ChunkRows: 512})
	var partials []Partial
	final, err := ds.Sketch(context.Background(), histSketch(), func(p Partial) {
		partials = append(partials, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("nil result")
	}
	if len(partials) == 0 {
		t.Fatal("no partials emitted")
	}
	last := partials[len(partials)-1]
	if last.Done != len(parts) || last.Total != len(parts) {
		t.Errorf("final partial Done/Total = %d/%d, want %d/%d", last.Done, last.Total, len(parts), len(parts))
	}
	prev := -1
	completions := 0
	for _, p := range partials {
		if p.Done < prev {
			t.Errorf("Done regressed: %d after %d", p.Done, prev)
		}
		if p.Done > len(parts) {
			t.Errorf("Done = %d exceeds partition count %d", p.Done, len(parts))
		}
		if p.Done == p.Total {
			completions++
		}
		prev = p.Done
	}
	if completions != 1 {
		t.Errorf("got %d Done==Total partials, want exactly one (the final emit)", completions)
	}
}

// foldedTables resolves a dataset's plan to the chunk tables its runs
// fold, in task order: each task's partition restricted by chunkTable,
// memberless chunks dropped, exactly as Sketch does.
func foldedTables(t *testing.T, ds *LocalDataSet, sk sketch.Sketch) (tasks []leafTask, folded []*table.Table) {
	t.Helper()
	tasks, _ = ds.plan(sk)
	for _, tk := range tasks {
		p, release, err := ds.src.Acquire(tk.part, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ct := chunkTable(p, tk); ct != nil {
			folded = append(folded, ct)
		}
		release()
	}
	return tasks, folded
}

// TestLeafTaskChunkIDs pins the chunk ID scheme ("<partition>#<start>")
// that per-chunk sampling seeds derive from.
func TestLeafTaskChunkIDs(t *testing.T) {
	parts := genParts("ct", 1, 2500, 3)
	ds := NewLocal("ct", parts, Config{ChunkRows: 1000})
	tasks, folded := foldedTables(t, ds, histSketch())
	if len(tasks) != 3 || len(folded) != 3 {
		t.Fatalf("got %d tasks folding %d tables, want 3", len(tasks), len(folded))
	}
	wantIDs := []string{"ct-p0#0", "ct-p0#1000", "ct-p0#2000"}
	var rows int
	for i, tk := range tasks {
		if folded[i].ID() != wantIDs[i] {
			t.Errorf("task %d ID = %q, want %q", i, folded[i].ID(), wantIDs[i])
		}
		if tk.part != 0 {
			t.Errorf("task %d part = %d, want 0", i, tk.part)
		}
		rows += folded[i].NumRows()
	}
	if rows != 2500 {
		t.Errorf("chunks cover %d rows, want 2500", rows)
	}
	// Sharding disabled: one task per partition, original table.
	off := NewLocal("ct", parts, Config{ChunkRows: -1})
	if tasks, folded := foldedTables(t, off, histSketch()); len(tasks) != 1 || folded[0] != parts[0] {
		t.Errorf("ChunkRows<0 should disable sharding, got %d tasks", len(tasks))
	}
}

// TestPlanRunsAlignToPartitions pins the run geometry: runs tile the
// task list in order, hold at most runChunks tasks, never cross a
// partition boundary, and do not depend on Parallelism; chunks outside
// a leaf's member interval are dropped at plan time.
func TestPlanRunsAlignToPartitions(t *testing.T) {
	parts := genParts("rg", 3, 100*(2*runChunks+1), 11) // 2*runChunks+1 chunks each
	for _, par := range []int{1, 2, 7} {
		ds := NewLocal("rg", parts, Config{ChunkRows: 100, Parallelism: par})
		tasks, runs := ds.plan(histSketch())
		if len(tasks) != 3*(2*runChunks+1) || len(runs)-1 != 3*3 {
			t.Fatalf("parallelism %d: %d tasks in %d runs, want %d in 9", par, len(tasks), len(runs)-1, 3*(2*runChunks+1))
		}
		if runs[0] != 0 || runs[len(runs)-1] != len(tasks) {
			t.Fatalf("runs %v do not tile %d tasks", runs, len(tasks))
		}
		for r := 0; r+1 < len(runs); r++ {
			n := runs[r+1] - runs[r]
			if n < 1 || n > runChunks {
				t.Errorf("run %d holds %d tasks, want 1..%d", r, n, runChunks)
			}
			if tasks[runs[r]].part != tasks[runs[r+1]-1].part {
				t.Errorf("run %d crosses a partition boundary", r)
			}
		}
	}
	src := metaSource{{ID: "m", Lo: 250, Hi: 600, Bound: 1000}}
	tasks, runs := NewLocalSource("m", src, Config{ChunkRows: 100}).plan(histSketch())
	if len(tasks) != 4 || tasks[0].lo != 200 || tasks[3].hi != 600 || len(runs) != 2 {
		t.Errorf("interval [250,600) of 1000 planned as %+v runs %v, want chunks 200..600 in one run", tasks, runs)
	}
}

// metaSource is a LeafSource with geometry only, for planner tests.
type metaSource []LeafMeta

func (s metaSource) Leaves() []LeafMeta { return s }
func (s metaSource) Acquire(int, []string) (*table.Table, func(), error) {
	return nil, nil, ErrMissingDataset
}

// TestWholePartitionSketchNotChunked checks that per-partition sketches
// (sketch.WholePartition) bypass chunking: MetaSketch.Leaves must count
// partitions, never chunks.
func TestWholePartitionSketchNotChunked(t *testing.T) {
	parts := genParts("wp", 2, 3000, 5)
	ds := NewLocal("wp", parts, Config{AggregationWindow: -1, ChunkRows: 500})
	r, err := ds.Sketch(context.Background(), &sketch.MetaSketch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.(*sketch.TableMeta)
	if meta.Leaves != 2 {
		t.Errorf("MetaSketch Leaves = %d under chunking, want 2", meta.Leaves)
	}
	if meta.Rows != 6000 {
		t.Errorf("MetaSketch Rows = %d, want 6000", meta.Rows)
	}
}

// TestLeafTasksSkipEmptyChunks checks that chunk ranges holding no
// member rows (popcount over the membership bitset range) are never
// folded, without changing the summary: a clustered filter over a large
// physical space scans only the occupied ranges.
func TestLeafTasksSkipEmptyChunks(t *testing.T) {
	parts := genParts("ec", 1, 10000, 13)
	// Members cluster in [0, 1000) ∪ [9000, 10000): 2000 of 10000
	// physical rows, a dense bitmap membership.
	f := parts[0].Filter("ec-f", func(row int) bool { return row < 1000 || row >= 9000 })
	ds := NewLocal("ec", []*table.Table{f}, Config{AggregationWindow: -1, ChunkRows: 500})
	_, folded := foldedTables(t, ds, histSketch())
	if len(folded) != 4 {
		t.Errorf("got %d folded chunks, want 4 (only occupied 500-row ranges)", len(folded))
	}
	var members int
	for _, ct := range folded {
		members += ct.NumRows()
	}
	if members != 2000 {
		t.Errorf("chunks cover %d member rows, want 2000", members)
	}
	whole := NewLocal("ec", []*table.Table{f}, Config{AggregationWindow: -1, ChunkRows: -1})
	want, err := whole.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("skipping empty chunks changed the summary")
	}
}

// TestShardedHeavyHittersGuarantee runs Misra–Gries through the chunked
// engine path (per-run accumulators, merge tree) and checks the
// frequency guarantee against exact counts.
func TestShardedHeavyHittersGuarantee(t *testing.T) {
	const rows = 12000
	const k = 8
	vals := make([]string, 26)
	for i := range vals {
		vals[i] = "t-" + string(rune('a'+i))
	}
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	truth := map[string]int64{}
	var parts []*table.Table
	for p := 0; p < 3; p++ {
		b := table.NewBuilder(schema, rows/3)
		for i := 0; i < rows/3; i++ {
			var v string
			switch {
			case i%10 < 4:
				v = "v0"
			case i%10 < 6:
				v = "v1"
			default:
				v = vals[(i*7+p)%len(vals)]
			}
			truth[v]++
			b.AppendRow(table.Row{table.StringValue(v)})
		}
		parts = append(parts, b.Freeze(fmt.Sprintf("hh-p%d", p)))
	}
	ds := NewLocal("hh", parts, Config{AggregationWindow: -1, ChunkRows: 512})
	res, err := ds.Sketch(context.Background(), &sketch.MisraGriesSketch{Col: "s", K: k}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hh := res.(*sketch.HeavyHitters)
	if hh.ScannedRows != rows {
		t.Fatalf("ScannedRows = %d, want %d", hh.ScannedRows, rows)
	}
	if len(hh.Counters) > k {
		t.Fatalf("%d > K counters", len(hh.Counters))
	}
	errBound := int64(rows)/int64(k+1) + 1
	for v, c := range hh.Counters {
		tc := truth[v.S]
		if c > tc || tc-c > errBound {
			t.Errorf("count for %q = %d, truth %d, bound %d", v.S, c, tc, errBound)
		}
	}
	for _, want := range []string{"v0", "v1"} { // 40% and 20% > 1/(k+1)
		if _, ok := hh.Counters[table.StringValue(want)]; !ok {
			t.Errorf("heavy value %q lost in the sharded scan", want)
		}
	}
}

// TestSparsePartitionNotChunked checks that chunking keys off the
// member count, not the physical bound: a heavily filtered partition is
// one cheap scan, not dozens of near-empty ones.
func TestSparsePartitionNotChunked(t *testing.T) {
	parts := genParts("sp", 1, 5000, 7)
	filtered := parts[0].Filter("sp-p0/f", func(row int) bool { return row%100 == 0 })
	ds := NewLocal("sp", []*table.Table{filtered}, Config{ChunkRows: 500})
	if tasks, _ := ds.plan(histSketch()); len(tasks) != 1 {
		t.Errorf("sparse partition (50 members, 5000 physical) split into %d tasks, want 1", len(tasks))
	}
	// A dense partition over the same physical space still shards.
	ds2 := NewLocal("sp2", parts, Config{ChunkRows: 500})
	if tasks, _ := ds2.plan(histSketch()); len(tasks) != 10 {
		t.Errorf("dense partition split into %d tasks, want 10", len(tasks))
	}
}
