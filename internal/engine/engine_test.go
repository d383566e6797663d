package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/table"
)

var engSchema = table.NewSchema(
	table.ColumnDesc{Name: "x", Kind: table.KindDouble},
	table.ColumnDesc{Name: "g", Kind: table.KindString},
)

// genParts builds n partitions of rows each, with deterministic values.
func genParts(prefix string, n, rows int, seed uint64) []*table.Table {
	parts := make([]*table.Table, n)
	for p := 0; p < n; p++ {
		rng := rand.New(rand.NewPCG(seed+uint64(p), 7))
		b := table.NewBuilder(engSchema, rows)
		for i := 0; i < rows; i++ {
			g := "even"
			if rng.IntN(2) == 1 {
				g = "odd"
			}
			b.AppendRow(table.Row{table.DoubleValue(rng.Float64() * 100), table.StringValue(g)})
		}
		parts[p] = b.Freeze(fmt.Sprintf("%s-p%d", prefix, p))
	}
	return parts
}

func histSketch() *sketch.HistogramSketch {
	return &sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 10)}
}

func TestLocalSketchMatchesSequential(t *testing.T) {
	parts := genParts("l", 16, 2000, 1)
	ds := NewLocal("l", parts, Config{Parallelism: 8, AggregationWindow: -1})
	got, err := ds.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sketch.MergeAll(histSketch(), func() []sketch.Result {
		var rs []sketch.Result
		for _, p := range parts {
			r, _ := histSketch().Summarize(p)
			rs = append(rs, r)
		}
		return rs
	}()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel result differs from sequential:\n%+v\n%+v", got, want)
	}
}

func TestLocalPartialsMonotone(t *testing.T) {
	parts := genParts("m", 32, 500, 2)
	ds := NewLocal("m", parts, Config{Parallelism: 4, AggregationWindow: time.Nanosecond})
	var partials []Partial
	var mu sync.Mutex
	final, err := ds.Sketch(context.Background(), histSketch(), func(p Partial) {
		mu.Lock()
		partials = append(partials, p)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) == 0 {
		t.Fatal("no partials emitted")
	}
	last := partials[len(partials)-1]
	if last.Done != 32 || last.Total != 32 {
		t.Fatalf("final partial = %d/%d", last.Done, last.Total)
	}
	if !reflect.DeepEqual(last.Result, final) {
		t.Error("final partial differs from returned result")
	}
	// Done counts never decrease and bucket totals only grow.
	prevDone := 0
	var prevTotal int64
	for _, p := range partials {
		if p.Done < prevDone {
			t.Fatalf("Done went backwards: %d -> %d", prevDone, p.Done)
		}
		prevDone = p.Done
		h := p.Result.(*sketch.Histogram)
		if tot := h.TotalCount(); tot < prevTotal {
			t.Fatalf("counts shrank: %d -> %d", prevTotal, tot)
		} else {
			prevTotal = tot
		}
	}
}

// TestPartialsOutliveTheScan: a partial is a snapshot its consumer may
// keep. The merge tree adds a heat map's nodes into each other in place,
// so a partial must never be one of its live nodes: after the query,
// every partial kept during it still equals the deep copy taken on its
// delivery. Under -race, a snapshot read outside the scan lock is also a
// data race with the workers' merges.
func TestPartialsOutliveTheScan(t *testing.T) {
	parts := genParts("keep", 16, 2000, 9)
	heat := &sketch.Histogram2DSketch{XCol: "x", YCol: "g",
		X: sketch.NumericBuckets(table.KindDouble, 0, 100, 40),
		Y: sketch.StringBucketsFromDistinct([]string{"even", "odd"}, 2)}
	batch, err := sketch.NewMultiSketch(heat, histSketch())
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []sketch.Sketch{heat, batch} {
		ds := NewLocal("keep", parts, Config{Parallelism: 2, AggregationWindow: time.Nanosecond})
		type kept struct{ partial, copy sketch.Result }
		var (
			mu       sync.Mutex
			partials []kept
		)
		_, err := ds.Sketch(context.Background(), sk, func(p Partial) {
			b, ok := sketch.AppendResultWire(nil, p.Result)
			if !ok {
				t.Errorf("%T: no codec", p.Result)
				return
			}
			c, _, err := sketch.DecodeResultWire(b)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			mu.Lock()
			partials = append(partials, kept{p.Result, c})
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(partials) < 2 {
			t.Fatalf("%s: %d partials, want several", sk.Name(), len(partials))
		}
		for i, k := range partials {
			if !reflect.DeepEqual(k.partial, k.copy) {
				t.Errorf("%s: partial %d of %d changed after its delivery", sk.Name(), i+1, len(partials))
			}
		}
	}
}

func TestLocalThrottleWindow(t *testing.T) {
	parts := genParts("t", 64, 200, 3)
	// Huge window: only the final emission passes.
	ds := NewLocal("t", parts, Config{Parallelism: 4, AggregationWindow: time.Hour})
	count := 0
	if _, err := ds.Sketch(context.Background(), histSketch(), func(Partial) { count++ }); err != nil {
		t.Fatal(err)
	}
	// The first partial may slip through before the throttle arms plus
	// the guaranteed final one.
	if count > 2 {
		t.Errorf("throttle leaked %d partials", count)
	}
	// Disabled partials: none at all except... none (final via allow(true)
	// still passes when onPartial set but window<0 means disabled for
	// non-final; final passes).
	ds2 := NewLocal("t2", parts, Config{Parallelism: 4, AggregationWindow: -1})
	count = 0
	if _, err := ds2.Sketch(context.Background(), histSketch(), func(Partial) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("disabled window: got %d emissions, want only the final", count)
	}
}

// TestSlowPartialConsumerDoesNotStallScan: while a slow onPartial is
// running, further emissions are dropped (TryLock) instead of queueing
// every worker behind the consumer. Before the accumulator rework, the
// callback ran under the shared merge mutex and a slow
// consumer serialized the whole scan behind itself — here ~48 windows
// of 30 ms each.
func TestSlowPartialConsumerDoesNotStallScan(t *testing.T) {
	parts := genParts("slow", 48, 2000, 17)
	ds := NewLocal("slow", parts, Config{Parallelism: 4, AggregationWindow: time.Nanosecond})
	var calls atomic.Int32
	start := time.Now()
	if _, err := ds.Sketch(context.Background(), histSketch(), func(Partial) {
		calls.Add(1)
		time.Sleep(30 * time.Millisecond)
	}); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if n := calls.Load(); n > 8 {
		t.Errorf("slow consumer received %d partials; emissions during a busy consumer should be dropped", n)
	}
	if elapsed > 2*time.Second {
		t.Errorf("scan took %v behind a slow partial consumer", elapsed)
	}
}

// TestSlowConsumerFinalPartial pins the completion contract under a
// slow consumer: window emissions may be dropped while the consumer is
// busy (TryLock), but the stream always ends with exactly one
// Done==Total partial carrying the returned final result — the final
// emit blocks on emitMu, so it can neither race a trailing window
// emission nor be dropped by one.
func TestSlowConsumerFinalPartial(t *testing.T) {
	parts := genParts("fin", 24, 1500, 23)
	ds := NewLocal("fin", parts, Config{Parallelism: 4, AggregationWindow: time.Nanosecond})
	var (
		mu  sync.Mutex
		log []Partial
	)
	final, err := ds.Sketch(context.Background(), histSketch(), func(p Partial) {
		mu.Lock()
		log = append(log, p)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log) == 0 {
		t.Fatal("no partials delivered")
	}
	completions := 0
	prev := 0
	for i, p := range log {
		if p.Done < prev {
			t.Errorf("partial %d: Done regressed %d -> %d", i, prev, p.Done)
		}
		prev = p.Done
		if p.Done == p.Total {
			completions++
		}
	}
	if completions != 1 {
		t.Errorf("saw %d completion partials, want exactly 1", completions)
	}
	last := log[len(log)-1]
	if last.Done != last.Total {
		t.Errorf("last delivery Done=%d Total=%d; stream must end with the completion partial", last.Done, last.Total)
	}
	if !reflect.DeepEqual(last.Result, final) {
		t.Error("completion partial does not carry the returned final result")
	}
}

func TestLocalCancellation(t *testing.T) {
	parts := genParts("c", 64, 20000, 4)
	ds := NewLocal("c", parts, Config{Parallelism: 2, AggregationWindow: time.Nanosecond})
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	// Cancel from inside the partial callback, which runs mid-query while
	// most partitions are still queued. (A watcher goroutine polling with
	// time.Sleep is racy: on coarse-timer machines the whole scan can
	// finish before a 100µs sleep returns.)
	_, err := ds.Sketch(ctx, histSketch(), func(p Partial) {
		done.Store(int32(p.Done))
		if p.Done >= 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int(done.Load()) == 64 {
		t.Error("cancellation did not prevent any work")
	}
}

// localReplica serves one partition range from a dataset: the adapter
// that lets SketchReplicated, the engine's aggregation node, fan out
// over local datasets the way package cluster fans out over workers.
type localReplica struct{ IDataSet }

func (r localReplica) Name() string  { return r.IDataSet.(*LocalDataSet).id }
func (r localReplica) Healthy() bool { return true }

// treeNode is a Replica that knows how many partitions it serves.
type treeNode interface {
	Replica
	NumLeaves() int
}

// fanOut is an aggregation node over children, each a single-replica
// range, folded by SketchReplicated with no failover. It is itself a
// treeNode, so trees nest.
type fanOut struct {
	children []treeNode
	cfg      Config
}

func newFanOut(cfg Config, children ...treeNode) *fanOut {
	return &fanOut{children: children, cfg: cfg}
}

func (f *fanOut) Name() string  { return "fanout" }
func (f *fanOut) Healthy() bool { return true }

func (f *fanOut) NumLeaves() int {
	n := 0
	for _, c := range f.children {
		n += c.NumLeaves()
	}
	return n
}

func (f *fanOut) Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	groups := make([]ReplicaGroup, len(f.children))
	for i, c := range f.children {
		groups[i] = group(i, len(f.children), c.NumLeaves(), c)
	}
	return SketchReplicated(ctx, sk, onPartial, groups, f.cfg, FailoverOptions{})
}

func TestParallelTreeEqualsFlat(t *testing.T) {
	parts := genParts("pt", 12, 1000, 5)
	flat := NewLocal("flat", parts, Config{AggregationWindow: -1})
	// Tree: 3 local children of 4 partitions each under one aggregation
	// node, plus a nested aggregation level.
	l1 := NewLocal("l1", parts[0:4], Config{AggregationWindow: -1})
	l2 := NewLocal("l2", parts[4:8], Config{AggregationWindow: -1})
	l3 := NewLocal("l3", parts[8:12], Config{AggregationWindow: -1})
	inner := newFanOut(Config{AggregationWindow: -1}, localReplica{l2}, localReplica{l3})
	tree := newFanOut(Config{AggregationWindow: -1}, localReplica{l1}, inner)

	if tree.NumLeaves() != 12 {
		t.Fatalf("NumLeaves = %d", tree.NumLeaves())
	}
	a, err := flat.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tree.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("tree topology changed the result")
	}
}

func TestParallelPartials(t *testing.T) {
	parts := genParts("pp", 8, 3000, 6)
	l1 := NewLocal("l1", parts[:4], Config{AggregationWindow: time.Nanosecond})
	l2 := NewLocal("l2", parts[4:], Config{AggregationWindow: time.Nanosecond})
	tree := newFanOut(Config{AggregationWindow: time.Nanosecond}, localReplica{l1}, localReplica{l2})
	var partials []Partial
	var mu sync.Mutex
	final, err := tree.Sketch(context.Background(), histSketch(), func(p Partial) {
		mu.Lock()
		partials = append(partials, p)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partials) < 2 {
		t.Fatalf("expected multiple partials, got %d", len(partials))
	}
	last := partials[len(partials)-1]
	if last.Done != 8 || last.Total != 8 {
		t.Fatalf("final = %d/%d", last.Done, last.Total)
	}
	if !reflect.DeepEqual(last.Result, final) {
		t.Error("final partial != returned result")
	}
}

func TestMapFilterAndDerive(t *testing.T) {
	parts := genParts("mf", 4, 1000, 7)
	ds := NewLocal("mf", parts, Config{AggregationWindow: -1})
	// Filter x < 50.
	filtered, err := ds.Map(FilterOp{Predicate: "x < 50"}, "mf-f")
	if err != nil {
		t.Fatal(err)
	}
	res, err := filtered.Sketch(context.Background(), &sketch.RangeSketch{Col: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*sketch.DataRange)
	if r.Max >= 50 {
		t.Errorf("filtered max = %g, want < 50", r.Max)
	}
	whole, _ := ds.Sketch(context.Background(), &sketch.RangeSketch{Col: "x"}, nil)
	if r.Present >= whole.(*sketch.DataRange).Present {
		t.Error("filter did not reduce rows")
	}
	// Derive x2 = x * 2.
	derived, err := ds.Map(DeriveOp{Col: "x2", Expr: "x * 2"}, "mf-d")
	if err != nil {
		t.Fatal(err)
	}
	res, err = derived.Sketch(context.Background(), &sketch.RangeSketch{Col: "x2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := res.(*sketch.DataRange)
	w := whole.(*sketch.DataRange)
	if diff := r2.Max - 2*w.Max; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("derived max = %g, want %g", r2.Max, 2*w.Max)
	}
	// Range filter (zoom).
	zoom, err := ds.Map(FilterRangeOp{Col: "x", Min: 10, Max: 20}, "mf-z")
	if err != nil {
		t.Fatal(err)
	}
	res, err = zoom.Sketch(context.Background(), &sketch.RangeSketch{Col: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rz := res.(*sketch.DataRange)
	if rz.Min < 10 || rz.Max > 20 {
		t.Errorf("zoom range [%g, %g] outside [10, 20]", rz.Min, rz.Max)
	}
	// Map errors surface.
	if _, err := ds.Map(FilterOp{Predicate: "nope > 1"}, "mf-bad"); err == nil {
		t.Error("bad predicate should fail")
	}
	if _, err := ds.Map(FilterRangeOp{Col: "g", Min: 0, Max: 1}, "mf-bad2"); err == nil {
		t.Error("range filter over string should fail")
	}
}

// TestDeriveStoresColumn: DeriveOp evaluates its expression once per
// member row and stores the column, so a derived string column is a
// dictionary column like a loaded one, and Misra–Gries tallies it — the
// summary is Merge(exact counts, Zero) — instead of streaming it.
func TestDeriveStoresColumn(t *testing.T) {
	parts, _ := table.GenPartitions("dsc", 5, 3000, 4)
	for i, p := range parts {
		d, err := DeriveOp{Col: "gs2", Expr: `concat(gs, "!")`}.Apply(p, DerivePartID("dsc-d", i))
		if err != nil {
			t.Fatal(err)
		}
		col, ok := d.MustColumn("gs2").(*table.StringColumn)
		if !ok {
			t.Fatalf("%s: derived a %T, want a stored string column", p.ID(), d.MustColumn("gs2"))
		}
		sk := &sketch.MisraGriesSketch{Col: "gs2", K: 3}
		got, err := sk.Summarize(d)
		if err != nil {
			t.Fatal(err)
		}
		exact := &sketch.HeavyHitters{K: sk.K, Counters: map[table.Value]int64{}}
		d.Members().Iterate(func(row int) bool {
			exact.ScannedRows++
			exact.Counters[col.Value(row)]++
			return true
		})
		want, err := sk.Merge(exact, sk.Zero())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Misra-Gries over a derived string column %+v, want the tally %+v", p.ID(), got, want)
		}
	}
}

func TestSketchErrorPropagates(t *testing.T) {
	parts := genParts("se", 8, 100, 8)
	ds := NewLocal("se", parts, Config{AggregationWindow: -1})
	_, err := ds.Sketch(context.Background(), &sketch.RangeSketch{Col: "nope"}, nil)
	if err == nil {
		t.Fatal("expected error for unknown column")
	}
	tree := newFanOut(Config{AggregationWindow: -1}, localReplica{ds})
	if _, err := tree.Sketch(context.Background(), &sketch.RangeSketch{Col: "nope"}, nil); err == nil {
		t.Fatal("tree should propagate child errors")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := NewLocal("empty", nil, Config{})
	res, err := ds.Sketch(context.Background(), histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.(*sketch.Histogram).TotalCount() != 0 {
		t.Error("empty dataset should yield zero summary")
	}
}

// --- Root: redo log, caching, recovery ---

// testLoader builds datasets on demand and counts invocations.
type testLoader struct {
	mu    sync.Mutex
	loads int
}

func (l *testLoader) load(id, source string) (IDataSet, error) {
	l.mu.Lock()
	l.loads++
	l.mu.Unlock()
	if source == "fail" {
		return nil, errors.New("storage unavailable")
	}
	return NewLocal(id, genParts(id, 4, 500, 42), Config{AggregationWindow: -1}), nil
}

func TestRootLoadFilterQuery(t *testing.T) {
	l := &testLoader{}
	root := NewRoot(l.load)
	if _, err := root.Load("base", "gen"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Load("base", "gen"); err == nil {
		t.Error("duplicate dataset ID should fail")
	}
	if _, err := root.Filter("base", "small", "x < 10"); err != nil {
		t.Fatal(err)
	}
	res, err := root.RunSketch(context.Background(), "small", &sketch.RangeSketch{Col: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.(*sketch.DataRange).Max >= 10 {
		t.Error("filter not applied")
	}
	if len(root.Log()) != 2 {
		t.Errorf("log length = %d", len(root.Log()))
	}
}

func TestRootComputationCache(t *testing.T) {
	l := &testLoader{}
	root := NewRoot(l.load)
	if _, err := root.Load("base", "gen"); err != nil {
		t.Fatal(err)
	}
	sk := &sketch.RangeSketch{Col: "x"}
	a, err := root.RunSketch(context.Background(), "base", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := root.RunSketch(context.Background(), "base", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("cached result differs")
	}
	hits, _ := root.Cache().Stats()
	if hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	// Non-cacheable sketches bypass the cache.
	q := &sketch.QuantileSketch{Order: table.Asc("x"), SampleSize: 10, Seed: 1}
	if _, err := root.RunSketch(context.Background(), "base", q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := root.RunSketch(context.Background(), "base", q, nil); err != nil {
		t.Fatal(err)
	}
	hits2, _ := root.Cache().Stats()
	if hits2 != 1 {
		t.Errorf("randomized sketch hit the cache: hits = %d", hits2)
	}
}

// TestRootCacheKeysBucketGeometry: string histograms whose geometry
// differs only in ExactValues, or in where a "|" sits inside a bound,
// count different rows, so the second must not be answered from the
// first's cache entry.
func TestRootCacheKeysBucketGeometry(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	b := table.NewBuilder(schema, 5)
	for _, v := range []string{"a", "b", "c", "a|b", "b|c"} {
		b.AppendRow(table.Row{table.StringValue(v)})
	}
	part := b.Freeze("abc")
	load := func(id, _ string) (IDataSet, error) {
		return NewLocal(id, []*table.Table{part}, Config{AggregationWindow: -1}), nil
	}
	root := NewRoot(load)
	if _, err := root.Load("abc", "mem"); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]sketch.BucketSpec{
		{sketch.StringBucketsFromBounds([]string{"a", "c"}, true), sketch.StringBucketsFromBounds([]string{"a", "c"}, false)},
		{sketch.StringBucketsFromBounds([]string{"a|b", "c"}, false), sketch.StringBucketsFromBounds([]string{"a", "b|c"}, false)},
	} {
		for _, spec := range pair {
			sk := &sketch.HistogramSketch{Col: "s", Buckets: spec}
			got, err := root.RunSketch(context.Background(), "abc", sk, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sk.Summarize(part)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%v: root answered %v, a fresh scan %v", spec, got.(*sketch.Histogram).Counts, fresh.(*sketch.Histogram).Counts)
			}
		}
	}
}

// TestRootCachesGroupByMember: a MultiSketch has no cache entry of its
// own. A pass publishes each member under the member's key and costs
// each member that was absent one miss; the group is answered from the
// cache exactly when every member is there, one hit each; a probe counts
// hits but never a miss; and an uncacheable member keeps the group out
// of the cache without hiding its neighbours' misses.
func TestRootCachesGroupByMember(t *testing.T) {
	l := &testLoader{}
	root := NewRoot(l.load)
	if _, err := root.Load("base", "gen"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng, cnt := &sketch.RangeSketch{Col: "x"}, &sketch.DistinctCountSketch{Col: "x"}
	group, err := sketch.NewMultiSketch(rng, cnt)
	if err != nil {
		t.Fatal(err)
	}
	stats := func() [2]int64 { h, m := root.Cache().Stats(); return [2]int64{h, m} }

	if _, ok := root.Cached(ctx, "base", group, nil); ok || stats() != [2]int64{0, 0} {
		t.Fatalf("probe of an empty cache: hit %v, stats %v", ok, stats())
	}
	solo, err := root.RunSketch(ctx, "base", rng, nil)
	if err != nil || stats() != [2]int64{0, 1} {
		t.Fatalf("solo run: err %v, stats %v, want one miss", err, stats())
	}
	first, err := root.RunSketch(ctx, "base", group, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats() != [2]int64{0, 2} {
		t.Errorf("pass with one member cached: stats %v, want no hit (the entry was not used) and one more miss", stats())
	}
	if !reflect.DeepEqual(first.(*sketch.MultiResult).Members[0], solo) {
		t.Error("member's slot differs from its solo run")
	}
	var partials []Partial
	again, err := root.RunSketch(ctx, "base", group, func(p Partial) { partials = append(partials, p) })
	if err != nil || !reflect.DeepEqual(again, first) {
		t.Errorf("cached group: err %v, equal to the pass: %v", err, reflect.DeepEqual(again, first))
	}
	if stats() != [2]int64{2, 2} || len(partials) != 1 || partials[0].Done != 1 {
		t.Errorf("cached group: stats %v, partials %+v; want one hit per member and one completion partial", stats(), partials)
	}
	if res, ok := root.Cached(ctx, "base", cnt, nil); !ok || !reflect.DeepEqual(res, first.(*sketch.MultiResult).Members[1]) {
		t.Error("a member that ran in the pass is not cached under its own key")
	}
	mixed, err := sketch.NewMultiSketch(&sketch.RangeSketch{Col: "g"}, &sketch.QuantileSketch{Order: table.Asc("x"), SampleSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := stats()
	for i := 0; i < 2; i++ {
		if _, err := root.RunSketch(ctx, "base", mixed, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats(); got != [2]int64{before[0], before[1] + 1} {
		t.Errorf("group with a randomized member, run twice: stats %v -> %v, want one miss (the first pass) and no hit", before, got)
	}
}

func TestRootReplayAfterDrop(t *testing.T) {
	l := &testLoader{}
	root := NewRoot(l.load)
	if _, err := root.Load("base", "gen"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Filter("base", "f1", "x < 50"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Derive("f1", "d1", "x2", "x * 2"); err != nil {
		t.Fatal(err)
	}
	want, err := root.RunSketch(context.Background(), "d1", &sketch.RangeSketch{Col: "x2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate full restart: all soft state gone, log survives.
	root.DropAll()
	// The computation cache still answers deterministic sketches without
	// rebuilding anything — that is the point of caching summaries.
	loadsBefore := l.loads
	cached, err := root.RunSketch(context.Background(), "d1", &sketch.RangeSketch{Col: "x2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, cached) || l.loads != loadsBefore {
		t.Fatal("cache should have served the dropped dataset's summary")
	}
	// Forcing access to the dataset itself triggers lazy replay of the
	// whole lineage (load, filter, derive) and invalidates its cache.
	if _, err := root.Get("d1"); err != nil {
		t.Fatal(err)
	}
	got, err := root.RunSketch(context.Background(), "d1", &sketch.RangeSketch{Col: "x2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replayed result differs — replay is not deterministic")
	}
	if l.loads != loadsBefore+1 {
		t.Errorf("replay should reload storage once, loaded %d times", l.loads-loadsBefore)
	}
	if root.Replays() < 3 {
		t.Errorf("expected ≥3 replayed ops (load, filter, derive), got %d", root.Replays())
	}
	// Dropping just the leaf of the lineage replays only that suffix.
	root.Drop("d1")
	loadsBefore = l.loads
	if _, err := root.Get("d1"); err != nil {
		t.Fatal(err)
	}
	if l.loads != loadsBefore {
		t.Error("partial replay should not have touched storage")
	}
}

func TestRootReplayUndefined(t *testing.T) {
	root := NewRoot((&testLoader{}).load)
	if _, err := root.Get("ghost"); !errors.Is(err, ErrMissingDataset) {
		t.Errorf("err = %v, want ErrMissingDataset", err)
	}
	if _, err := root.RunSketch(context.Background(), "ghost", histSketch(), nil); err == nil {
		t.Error("sketch on undefined dataset should fail")
	}
}

func TestRootLoaderFailure(t *testing.T) {
	root := NewRoot((&testLoader{}).load)
	if _, err := root.Load("bad", "fail"); err == nil {
		t.Fatal("loader failure should propagate")
	}
	// Failed loads must not pollute the log.
	if len(root.Log()) != 0 {
		t.Errorf("failed load was logged: %v", root.Log())
	}
}

// TestRootConcurrentLoadDefinesOnce: two concurrent loads of one name,
// both past the early check while the loader blocks, define it once.
// The loser gets "already defined" and the log holds one record.
func TestRootConcurrentLoadDefinesOnce(t *testing.T) {
	inner := &testLoader{}
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	root := NewRoot(func(id, source string) (IDataSet, error) {
		started <- struct{}{}
		<-release
		return inner.load(id, source)
	})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := root.Load("x", "ok")
			errs <- err
		}()
	}
	<-started
	<-started // both loads are inside the loader
	close(release)
	var failed int
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			if !strings.Contains(err.Error(), "already defined") {
				t.Fatalf("losing load: err = %v, want already defined", err)
			}
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d of 2 concurrent loads failed, want 1", failed)
	}
	if log := root.Log(); len(log) != 1 {
		t.Errorf("log holds %d records, want 1: %v", len(log), log)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(3)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if _, ok := c.Get("k0"); ok {
		t.Error("k0 should be evicted")
	}
	if _, ok := c.Get("k4"); !ok {
		t.Error("k4 should be present")
	}
	// Touch k2, insert k5: k3 (least recent) is evicted.
	c.Get("k2")
	c.Put("k5", 5)
	if _, ok := c.Get("k3"); ok {
		t.Error("k3 should be evicted after LRU touch")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Error("k2 should survive")
	}
	// Update-in-place does not grow the cache.
	c.Put("k2", 99)
	if c.Len() != 3 {
		t.Errorf("len after update = %d", c.Len())
	}
	if v, _ := c.Get("k2"); v.(int) != 99 {
		t.Error("update lost")
	}
}

func TestCacheInvalidateDataset(t *testing.T) {
	c := NewCache(10)
	c.Put("ds1|range(x)", 1)
	c.Put("ds1|range(y)", 2)
	c.Put("ds2|range(x)", 3)
	c.InvalidateDataset("ds1")
	if _, ok := c.Get("ds1|range(x)"); ok {
		t.Error("ds1 entries should be gone")
	}
	if _, ok := c.Get("ds2|range(x)"); !ok {
		t.Error("ds2 entries should survive")
	}
}

// TestKeyCacheable: a sketch is keyed when it is Cacheable with a
// non-empty CacheKey. A seedless histogram is keyed, a seeded one — the
// planner's fresh sample — is not, at any Rate.
func TestKeyCacheable(t *testing.T) {
	spec := sketch.NumericBuckets(table.KindDouble, 0, 1, 4)
	for _, c := range []struct {
		sk    sketch.Sketch
		keyed bool
	}{
		{&sketch.RangeSketch{Col: "x"}, true},
		{&sketch.QuantileSketch{Order: table.Asc("x")}, false},
		{&sketch.HistogramSketch{Col: "x", Buckets: spec}, true},
		{&sketch.HistogramSketch{Col: "x", Buckets: spec, Rate: 0.3}, true},
		{&sketch.HistogramSketch{Col: "x", Buckets: spec, Seed: 7}, false},
		{&sketch.HistogramSketch{Col: "x", Buckets: spec, Rate: 0.3, Seed: 7}, false},
		{&sketch.HistogramSketch{Col: "x", Buckets: spec, Rate: 1, Seed: 7}, false},
	} {
		if key, ok := Key("d", c.sk); ok != c.keyed || ok && key != "d|"+c.sk.Name() {
			t.Errorf("%s: key %q, keyed %v, want keyed %v", c.sk.Name(), key, ok, c.keyed)
		}
	}
}
