package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

// memSource serves dense in-memory tables through the LeafSource
// contract, counting acquires/releases and recording which columns
// were requested.
type memSource struct {
	parts []*table.Table

	mu        sync.Mutex
	acquires  int
	releases  int
	live      int32 // current pins, for max tracking
	maxLive   int32
	requested map[string]bool
	failAt    int // partition index whose Acquire fails (-1 = never)
	failErr   error
}

func newMemSource(parts []*table.Table) *memSource {
	return &memSource{parts: parts, requested: map[string]bool{}, failAt: -1}
}

func (s *memSource) Leaves() []LeafMeta {
	out := make([]LeafMeta, len(s.parts))
	for i, p := range s.parts {
		out[i] = LeafMeta{ID: p.ID(), Lo: 0, Hi: p.NumRows(), Bound: p.Members().Max()}
	}
	return out
}

func (s *memSource) Acquire(i int, cols []string) (*table.Table, func(), error) {
	s.mu.Lock()
	s.acquires++
	if s.failAt == i {
		s.mu.Unlock()
		return nil, nil, s.failErr
	}
	for _, c := range cols {
		s.requested[c] = true
	}
	s.mu.Unlock()
	n := atomic.AddInt32(&s.live, 1)
	for {
		old := atomic.LoadInt32(&s.maxLive)
		if n <= old || atomic.CompareAndSwapInt32(&s.maxLive, old, n) {
			break
		}
	}
	t := s.parts[i]
	if cols != nil {
		keep := make([]string, 0, len(cols))
		for _, c := range cols {
			if t.Schema().ColumnIndex(c) >= 0 {
				keep = append(keep, c)
			}
		}
		var err error
		t, err = t.Project(t.ID(), keep)
		if err != nil {
			return nil, nil, err
		}
	}
	var once sync.Once
	return t, func() {
		once.Do(func() {
			atomic.AddInt32(&s.live, -1)
			s.mu.Lock()
			s.releases++
			s.mu.Unlock()
		})
	}, nil
}

// sourceParts builds dense partitions with int and string columns.
func sourceParts(t *testing.T, n, rows int) []*table.Table {
	t.Helper()
	schema := table.NewSchema(
		table.ColumnDesc{Name: "v", Kind: table.KindInt},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
	)
	parts := make([]*table.Table, n)
	for p := 0; p < n; p++ {
		b := table.NewBuilder(schema, rows)
		for i := 0; i < rows; i++ {
			b.AppendRow(table.Row{
				table.IntValue(int64(p*rows+i) % 41),
				table.StringValue([]string{"x", "y", "z"}[(p+i)%3]),
			})
		}
		parts[p] = b.Freeze("src-p" + string(rune('0'+p)))
	}
	return parts
}

// TestLazySourceMatchesEager pins the core contract: a lazy dataset
// over a LeafSource produces bit-identical results to an eager dataset
// over the same partition tables, at every pool width, with pins fully
// released and the working set bounded by the worker pool.
func TestLazySourceMatchesEager(t *testing.T) {
	parts := sourceParts(t, 8, 1500)
	for _, par := range []int{1, 3} {
		cfg := Config{Parallelism: par, AggregationWindow: -1}
		src := newMemSource(parts)
		lazy := NewLocalSource("l", src, cfg)
		eager := NewLocal("l", parts, cfg)
		sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 41, 8)}

		want, err := eager.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Sketch(context.Background(), sk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d: lazy %+v != eager %+v", par, got, want)
		}
		src.mu.Lock()
		acq, rel, req := src.acquires, src.releases, src.requested
		src.mu.Unlock()
		if acq == 0 || acq != rel {
			t.Fatalf("parallelism %d: %d acquires, %d releases", par, acq, rel)
		}
		if !req["v"] || req["s"] {
			t.Fatalf("parallelism %d: requested columns %v, want exactly {v}", par, req)
		}
		if max := atomic.LoadInt32(&src.maxLive); max > int32(cfg.Parallelism) {
			t.Fatalf("parallelism %d: %d partitions pinned at once", par, max)
		}
	}
}

// TestLazySourceTotalsAndMeta checks metadata-only accessors and the
// MetaSketch path, which declares no columns and must see the full
// schema.
func TestLazySourceTotalsAndMeta(t *testing.T) {
	parts := sourceParts(t, 3, 500)
	src := newMemSource(parts)
	lazy := NewLocalSource("l", src, Config{AggregationWindow: -1})
	if lazy.NumLeaves() != 3 {
		t.Fatalf("leaves %d", lazy.NumLeaves())
	}
	res, err := lazy.Sketch(context.Background(), &sketch.MetaSketch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	meta := res.(*sketch.TableMeta)
	if meta.Rows != 1500 || meta.Leaves != 3 || meta.Schema.NumColumns() != 2 {
		t.Fatalf("meta %+v", meta)
	}
}

// TestLazySourceErrorPropagates checks an Acquire failure surfaces as
// the sketch error (the soft-state signal the root reacts to).
func TestLazySourceErrorPropagates(t *testing.T) {
	parts := sourceParts(t, 3, 400)
	src := newMemSource(parts)
	src.failAt = 1
	src.failErr = ErrMissingDataset
	lazy := NewLocalSource("l", src, Config{AggregationWindow: -1})
	sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 41, 8)}
	_, err := lazy.Sketch(context.Background(), sk, nil)
	if !errors.Is(err, ErrMissingDataset) {
		t.Fatalf("got %v, want ErrMissingDataset", err)
	}
}

// TestLazySourceMap derives an eager dataset from a lazy one and keeps
// querying it after all pins are released.
func TestLazySourceMap(t *testing.T) {
	parts := sourceParts(t, 3, 600)
	src := newMemSource(parts)
	lazy := NewLocalSource("l", src, Config{AggregationWindow: -1})
	derived, err := lazy.Map(FilterOp{Predicate: `v < 10`}, "f")
	if err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	if src.acquires != 3 || src.releases != 3 {
		t.Fatalf("map pins: %d acquires, %d releases", src.acquires, src.releases)
	}
	src.mu.Unlock()
	sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindInt, 0, 41, 8)}
	got, err := derived.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	eager := NewLocal("l", parts, Config{AggregationWindow: -1})
	ederived, err := eager.Map(FilterOp{Predicate: `v < 10`}, "f")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ederived.Sketch(context.Background(), sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("derived lazy %+v != eager %+v", got, want)
	}
}

// jitterSource perturbs scheduling: every Acquire pseudo-randomly
// returns at once, yields, or sleeps, so which worker claims which
// partition — and in which order partitions retire — differs from scan
// to scan.
type jitterSource struct {
	LeafSource
	mu  sync.Mutex
	rng *rand.Rand
}

func (s *jitterSource) Acquire(i int, cols []string) (*table.Table, func(), error) {
	s.mu.Lock()
	n := s.rng.IntN(6)
	s.mu.Unlock()
	switch {
	case n < 2:
		runtime.Gosched()
	case n < 4:
		time.Sleep(time.Duration(n) * 50 * time.Microsecond)
	}
	return s.LeafSource.Acquire(i, cols)
}

// TestResultIndependentOfScheduling is the determinism invariant on the
// production configuration: Misra–Gries — whose counters depend on merge
// order — and next-K — whose accumulators hand a pruning bound to
// whichever partition the worker claims next — return the same bits,
// and the same completion partial, however the workers interleave.
func TestResultIndependentOfScheduling(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt})
	rng := rand.New(rand.NewPCG(seedtest.Seed(t), 21))
	parts := make([]*table.Table, 40)
	for p := range parts {
		b := table.NewBuilder(schema, 500)
		for i := 0; i < 500; i++ {
			v := rng.Int64N(300)
			if rng.IntN(3) == 0 {
				v = rng.Int64N(6) // a few heavy values over a long tail
			}
			b.AppendRow(table.Row{table.IntValue(v)})
		}
		parts[p] = b.Freeze(fmt.Sprintf("js-p%d", p))
	}
	src := &jitterSource{LeafSource: newMemSource(parts), rng: rand.New(rand.NewPCG(1, 2))}
	for _, sk := range []sketch.Sketch{
		&sketch.MisraGriesSketch{Col: "v", K: 8},
		&sketch.NextKSketch{Order: table.Desc("v"), K: 12},
	} {
		var want sketch.Result
		for run := 0; run < 50; run++ {
			cfg := Config{Parallelism: 1 + run%5, AggregationWindow: time.Nanosecond}
			var last Partial
			got, err := NewLocalSource("js", src, cfg).Sketch(context.Background(), sk, func(p Partial) { last = p })
			if err != nil {
				t.Fatal(err)
			}
			if last.Done != len(parts) || !reflect.DeepEqual(last.Result, got) {
				t.Fatalf("%s run %d: completion partial (done %d) differs from the result", sk.Name(), run, last.Done)
			}
			if run == 0 {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d (parallelism %d): result depends on scheduling\n got %+v\nwant %+v", sk.Name(), run, cfg.Parallelism, got, want)
			}
		}
	}
}
