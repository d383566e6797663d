package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

// shardParts cuts one 12000-row table into 24 partitions of 500 rows and
// returns them (sharded) beside the uncut table (whole), each also
// filtered dense (bitmap membership) and sparse. Data derives from the
// test's seedtest seed: deterministic by default, explorable via
// HILLVIEW_TEST_SEED, and logged on failure so any CI failure replays
// locally. Assertions in these tests are structural (equivalences,
// counts), so they hold for every seed.
func shardParts(t *testing.T) (sharded, whole []*table.Table) {
	base := genParts("sh", 1, 12000, seedtest.Seed(t))[0]
	dense := func(tb *table.Table) func(int) bool {
		return func(row int) bool { return tb.MustColumn("x").Value(row).Double() < 80 }
	}
	sparse := func(row int) bool { return row%40 == 0 }
	whole = []*table.Table{base, base.Filter("sh/d", dense(base)), base.Filter("sh/s", sparse)}
	for lo := 0; lo < base.NumRows(); lo += 500 {
		s := table.SliceRows(base, fmt.Sprintf("sh#%d", lo), lo, lo+500)
		sharded = append(sharded, s, s.Filter(s.ID()+"/d", dense(s)), s.Filter(s.ID()+"/s", sparse))
	}
	return sharded, whole
}

// TestShardedScanMatchesUnsharded proves that cutting the same rows into
// many partitions folds to the identical result for exact sketches,
// across membership shapes.
func TestShardedScanMatchesUnsharded(t *testing.T) {
	sharded, whole := shardParts(t)
	sketches := []sketch.Sketch{
		histSketch(),
		&sketch.RangeSketch{Col: "x"},
		&sketch.DistinctCountSketch{Col: "g"},
		&sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 40)},
		&sketch.Histogram2DSketch{
			XCol: "x", YCol: "g",
			X: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
			Y: sketch.StringBucketsFromBounds([]string{"even", "odd"}, true),
		},
	}
	for _, sk := range sketches {
		want, err := NewLocal("w", whole, Config{AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewLocal("s", sharded, Config{AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded scan differs from unsharded\n got %+v\nwant %+v", sk.Name(), got, want)
		}
	}
}

// TestShardedSampledDeterminism proves that randomized sketches stay
// replay-deterministic over many partitions: per-partition seeds derive
// from (seed, partition ID), so the same partitions reproduce the same
// result at any pool width, and the total sample size stays consistent
// with the rate.
func TestShardedSampledDeterminism(t *testing.T) {
	parts, _ := shardParts(t)
	sk := &sketch.HistogramSketch{
		Col:     "x",
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
		Rate:    0.2,
		Seed:    42,
	}
	var want sketch.Result
	for _, par := range []int{1, 8, 1} {
		got, err := NewLocal("sd", parts, Config{Parallelism: par, AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: sampled sketch not deterministic across runs", par)
		}
	}
	var members int64
	for _, p := range parts {
		members += int64(p.NumRows())
	}
	if n := want.(*sketch.Histogram).SampledRows; n < int64(float64(members)*0.15) || n > int64(float64(members)*0.25) {
		t.Errorf("sampled %d of %d member rows, want ~20%%", n, members)
	}
}

// TestShardedPartialAccounting checks that Done counts folded
// partitions and reaches Total exactly once, at the end.
func TestShardedPartialAccounting(t *testing.T) {
	parts, _ := shardParts(t)
	ds := NewLocal("pa", parts, Config{AggregationWindow: 1})
	var (
		mu       sync.Mutex
		partials []Partial
	)
	final, err := ds.Sketch(context.Background(), histSketch(), func(p Partial) {
		mu.Lock()
		partials = append(partials, p)
		mu.Unlock()
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

// countingSketch is an exact row count whose accumulators record what
// the engine hands them: how many it builds and the ID of every table
// added.
type countingSketch struct {
	mu   sync.Mutex
	accs int
	adds []string
}

func (s *countingSketch) Name() string        { return "count" }
func (s *countingSketch) Zero() sketch.Result { return int64(0) }
func (s *countingSketch) Summarize(t *table.Table) (sketch.Result, error) {
	return int64(t.NumRows()), nil
}
func (s *countingSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	return a.(int64) + b.(int64), nil
}

func (s *countingSketch) NewAccumulator() sketch.Accumulator {
	s.mu.Lock()
	s.accs++
	s.mu.Unlock()
	return &countingAcc{sk: s}
}

type countingAcc struct {
	sk *countingSketch
	n  int64
}

func (a *countingAcc) Add(t *table.Table) error {
	a.sk.mu.Lock()
	a.sk.adds = append(a.sk.adds, t.ID())
	a.sk.mu.Unlock()
	a.n += int64(t.NumRows())
	return nil
}

func (a *countingAcc) Result() sketch.Result { return a.n }

// Next counts as a new accumulator.
func (a *countingAcc) Next() sketch.Accumulator { return a.sk.NewAccumulator() }

// TestOneAccumulatorPerPartition pins the scan geometry: the partition
// the source lists is the only scan unit, whatever its size and the
// pool width. Each gets exactly one accumulator and one Add of the
// partition itself, under its own ID, and the result is the merge tree
// of the per-partition summaries in partition order — so sketches equal
// Summarize+Merge bit for bit, and MetaSketch counts partitions.
func TestOneAccumulatorPerPartition(t *testing.T) {
	const big = 2100000
	vals := make([]int64, big)
	for i := range vals {
		vals[i] = int64(i*7919) % 1000
	}
	backing := table.New("acc", table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt}),
		[]table.Column{table.NewIntColumn(table.KindInt, vals, nil)}, table.FullMembership(big))
	var parts []*table.Table
	var ids []string
	for i, n := range []int{0, 10, 300000, big} {
		parts = append(parts, table.SliceRows(backing, fmt.Sprintf("acc-p%d", i), 0, n))
		ids = append(ids, parts[i].ID())
	}
	for _, par := range []int{1, 2, 8} {
		sk := &countingSketch{}
		res, err := NewLocal("acc", parts, Config{Parallelism: par, AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(sk.adds)
		if sk.accs != len(parts) || !slices.Equal(sk.adds, ids) || res.(int64) != 300010+big {
			t.Errorf("parallelism %d: %d accumulators added %v counting %v rows, want %d adding %v counting %d",
				par, sk.accs, sk.adds, res, len(parts), ids, 300010+big)
		}
	}
	for _, sk := range []sketch.Sketch{
		&sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 1000, 16)},
		&sketch.RangeSketch{Col: "v"},
		&sketch.DistinctCountSketch{Col: "v"},
		&sketch.MisraGriesSketch{Col: "v", K: 8},
		&sketch.MetaSketch{},
	} {
		sums := make([]sketch.Result, len(parts))
		for i, p := range parts {
			var err error
			if sums[i], err = sk.Summarize(p); err != nil {
				t.Fatal(err)
			}
		}
		want, err := sketch.MergeTree(sk, sums...)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 8} {
			got, err := NewLocal("acc", parts, Config{Parallelism: par, AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s parallelism %d: engine differs from the per-partition merge tree\n got %+v\nwant %+v", sk.Name(), par, got, want)
			}
		}
	}
	meta, err := NewLocal("acc", parts, Config{AggregationWindow: -1}).Sketch(context.Background(), &sketch.MetaSketch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := meta.(*sketch.TableMeta); m.Leaves != len(parts) || m.Rows != 300010+big {
		t.Errorf("MetaSketch counts %d leaves and %d rows, want %d and %d", m.Leaves, m.Rows, len(parts), 300010+big)
	}
}

// TestLeafTaskChunkIDs pins the ID a scan unit folds under, which
// per-unit sampling seeds derive from: the partition's own ID, never a
// "<partition>#<start>" range of it. A sampled sketch over the engine
// therefore equals Summarize on the partition itself.
func TestLeafTaskChunkIDs(t *testing.T) {
	parts := genParts("ct", 1, 2500, 3)
	for _, par := range []int{1, 4} {
		sk := &countingSketch{}
		res, err := NewLocal("ct", parts, Config{Parallelism: par, AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sk.accs != 1 || !slices.Equal(sk.adds, []string{"ct-p0"}) || res.(int64) != 2500 {
			t.Errorf("parallelism %d: %d accumulators added %v counting %v rows, want 1 adding [ct-p0] counting 2500",
				par, sk.accs, sk.adds, res)
		}
	}
	sampled := &sketch.HistogramSketch{
		Col:     "x",
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 10),
		Rate:    0.3,
		Seed:    9,
	}
	want, err := sampled.Summarize(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewLocal("ct", parts, Config{AggregationWindow: -1}).Sketch(context.Background(), sampled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sampled scan is not seeded by the partition ID\n got %+v\nwant %+v", got, want)
	}
}

// TestPlanRunsAlignToPartitions pins the unit geometry against the
// source: each partition Leaves lists is acquired once and released
// once, and folded by one accumulator, at any Parallelism — including a
// partition whose members fill only [250, 600) of a 1000-row space.
func TestPlanRunsAlignToPartitions(t *testing.T) {
	parts := genParts("rg", 3, 900, 11)
	base := genParts("rg-b", 1, 1000, 11)[0]
	parts = append(parts, base.Filter("rg-f", func(row int) bool { return row >= 250 && row < 600 }))
	var ids []string
	for _, p := range parts {
		ids = append(ids, p.ID())
	}
	slices.Sort(ids)
	for _, par := range []int{1, 2, 7} {
		src := newMemSource(parts)
		sk := &countingSketch{}
		res, err := NewLocalSource("rg", src, Config{Parallelism: par, AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(sk.adds)
		if src.acquires != len(parts) || src.releases != len(parts) {
			t.Errorf("parallelism %d: %d acquires and %d releases, want %d each", par, src.acquires, src.releases, len(parts))
		}
		if sk.accs != len(parts) || !slices.Equal(sk.adds, ids) || res.(int64) != 3*900+350 {
			t.Errorf("parallelism %d: %d accumulators added %v counting %v rows, want %d adding %v counting %d",
				par, sk.accs, sk.adds, res, len(parts), ids, 3*900+350)
		}
	}
}

// TestWholePartitionSketchNotChunked checks that MetaSketch.Leaves
// counts the partitions the source lists, whatever the pool width.
func TestWholePartitionSketchNotChunked(t *testing.T) {
	parts := genParts("wp", 2, 3000, 5)
	for _, par := range []int{1, 8} {
		r, err := NewLocal("wp", parts, Config{Parallelism: par, AggregationWindow: -1}).Sketch(context.Background(), &sketch.MetaSketch{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		meta := r.(*sketch.TableMeta)
		if meta.Leaves != 2 {
			t.Errorf("parallelism %d: MetaSketch Leaves = %d, want 2", par, meta.Leaves)
		}
		if meta.Rows != 6000 {
			t.Errorf("parallelism %d: MetaSketch Rows = %d, want 6000", par, meta.Rows)
		}
	}
}

// TestSparsePartitionNotChunked checks that a heavily filtered partition
// over a large physical space is one scan: one accumulator, given one
// Add of the partition itself with all of its members.
func TestSparsePartitionNotChunked(t *testing.T) {
	parts := genParts("sp", 1, 5000, 7)
	filtered := parts[0].Filter("sp-p0/f", func(row int) bool { return row%100 == 0 })
	sk := &countingSketch{}
	res, err := NewLocal("sp", []*table.Table{filtered}, Config{AggregationWindow: -1}).Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sk.accs != 1 || !slices.Equal(sk.adds, []string{"sp-p0/f"}) || res.(int64) != 50 {
		t.Errorf("sparse partition (50 members, 5000 physical) folded by %d accumulators adding %v, counting %v rows",
			sk.accs, sk.adds, res)
	}
}

// TestShardedHeavyHittersGuarantee runs Misra–Gries through the engine
// over many partitions (per-partition accumulators, merge tree) and
// checks the frequency guarantee against exact counts.
func TestShardedHeavyHittersGuarantee(t *testing.T) {
	const rows = 12000
	const nparts = 12
	const k = 8
	vals := make([]string, 26)
	for i := range vals {
		vals[i] = "t-" + string(rune('a'+i))
	}
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	truth := map[string]int64{}
	var parts []*table.Table
	for p := 0; p < nparts; p++ {
		b := table.NewBuilder(schema, rows/nparts)
		for i := 0; i < rows/nparts; i++ {
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
	ds := NewLocal("hh", parts, Config{AggregationWindow: -1})
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
