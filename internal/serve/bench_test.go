package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// The serving benchmark answers two questions for BENCH_serving.json:
//
//  1. Overhead: what does routing every query through the scheduler cost
//     vs calling the engine directly, at 1 and at 100 concurrent
//     sessions? (BenchmarkServeDirect / BenchmarkServeScheduled — run
//     them interleaved in one process; queries/s is ns/op inverted,
//     p99_ms is reported as a custom metric.)
//  2. Overload behavior: at 10x the scheduler's capacity, what fraction
//     of queries is shed, and do admitted queries still finish?
//     (BenchmarkServeOverloadShed — shed_frac metric.)
//
// Each query uses a distinct sampling seed so neither the engine cache
// nor single-flight dedup can serve it without a scan: both legs do the
// same work per op, and the A/B isolates pure scheduling overhead.

var registerFlights sync.Once

func benchRoot(b *testing.B) *engine.Root {
	b.Helper()
	registerFlights.Do(flights.Register)
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0))
	if _, err := root.Load("fl", "flights:rows=50000,parts=4,seed=7"); err != nil {
		b.Fatal(err)
	}
	return root
}

var benchSeed atomic.Uint64

// benchSketch builds a per-call unique query (distinct seed → distinct
// cache key) so every op pays for a real scan.
func benchSketch() sketch.Sketch {
	return &sketch.HistogramSketch{
		Col:     "Distance",
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 50),
		Rate:    0.5,
		Seed:    benchSeed.Add(1),
	}
}

// runSessions drives b.N queries through run from `sessions` concurrent
// client goroutines and reports p99 latency alongside ns/op.
func runSessions(b *testing.B, sessions int, run Runner) {
	b.Helper()
	var (
		mu   sync.Mutex
		lats = make([]time.Duration, 0, b.N)
		next atomic.Int64
	)
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, b.N/sessions+1)
			for next.Add(1) <= int64(b.N) {
				start := time.Now()
				if _, err := run.RunSketch(context.Background(), "fl", benchSketch(), nil); err != nil {
					b.Error(err)
					return
				}
				local = append(local, time.Since(start))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	b.StopTimer()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := lats[len(lats)*99/100]
	b.ReportMetric(float64(p99)/1e6, "p99_ms")
}

func BenchmarkServeDirect(b *testing.B) {
	root := benchRoot(b)
	for _, sessions := range []int{1, 100} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			runSessions(b, sessions, root)
		})
	}
}

func BenchmarkServeScheduled(b *testing.B) {
	root := benchRoot(b)
	// Provisioned for the benchmark's peak concurrency: the A/B measures
	// per-query scheduling overhead, not shedding (that is
	// BenchmarkServeOverloadShed), so no query may be turned away.
	s := New(root, Config{MaxInFlight: 128, QueueDepth: 128, Deadline: -1})
	for _, sessions := range []int{1, 100} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			runSessions(b, sessions, s)
		})
	}
}

// fixedServiceRunner completes every query after a fixed service time.
// The shed benchmark uses it instead of the real engine because on a
// single-vCPU host an in-process scan runs to completion before the
// next client goroutine is scheduled — bursts serialize and nothing
// sheds, which measures the runtime's scheduler, not admission control.
// A timer genuinely parks the query goroutine, so the burst overlaps.
type fixedServiceRunner struct{ d time.Duration }

func (f fixedServiceRunner) RunSketch(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
	select {
	case <-time.After(f.d):
		return int64(1), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// BenchmarkServeOverloadShed fires 10x the scheduler's total capacity
// (slots + queue) in concurrent bursts of fixed-service-time queries
// and reports the shed fraction. Admitted queries must all succeed;
// shed queries must return ErrShed — anything else fails the benchmark.
func BenchmarkServeOverloadShed(b *testing.B) {
	const slots, queue = 4, 8
	s := New(fixedServiceRunner{d: 2 * time.Millisecond}, Config{MaxInFlight: slots, QueueDepth: queue, Deadline: -1})
	clients := 10 * (slots + queue)

	var ok, shed atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := s.RunSketch(context.Background(), "fl", benchSketch(), nil)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				default:
					b.Errorf("unexpected error under overload: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	total := ok.Load() + shed.Load()
	if total > 0 {
		b.ReportMetric(float64(shed.Load())/float64(total), "shed_frac")
		b.ReportMetric(float64(ok.Load())/float64(b.N), "admitted/burst")
	}
}

// batchBenchRows is the scan-batching benchmark's table size: big
// enough that the leaf pass dominates scheduling noise.
const batchBenchRows = 10_000_000

// batchBenchData builds one 40-partition double-column table of the
// given size and a LocalDataSet over it.
func batchBenchData(b *testing.B, rows int) *engine.LocalDataSet {
	b.Helper()
	const parts = 40
	schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindDouble})
	tabs := make([]*table.Table, parts)
	for p := 0; p < parts; p++ {
		n := rows / parts
		vals := make([]float64, n)
		x := uint64(p)*0x9e3779b97f4a7c15 + 1
		for i := range vals {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			vals[i] = float64(x%1_000_000) / 1_000_000
		}
		tabs[p] = table.New(fmt.Sprintf("big-p%d", p), schema,
			[]table.Column{table.NewDoubleColumn(vals, nil)}, table.FullMembership(n))
	}
	return engine.NewLocal("big", tabs, engine.Config{AggregationWindow: -1})
}

// batchBenchSketches builds K distinct cacheable queries (different
// bucket counts → different cache keys) over the shared column.
func batchBenchSketches(k int) []sketch.Sketch {
	sks := make([]sketch.Sketch, k)
	for i := range sks {
		sks[i] = &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 8+i)}
	}
	return sks
}

// BenchmarkServeBatch is the batching A/B for BENCH_serving.json: K=8
// concurrent distinct histogram queries over one 10M-row table, through
// a scheduler with the batching window open vs closed, interleaved in
// one process. scans/round is the leaf-pass count per burst: unbatched
// it is K; batched it is 2, not 1 — the first arrival finds the dataset
// idle and starts at once, and the other K−1 gather behind it into one
// pass (a timer opened by the first arrival made it 1, at the price of
// every lone query sleeping the window out). The lone leg is that
// price's absence: one query at a time under a 50 ms window must cost a
// scan, not a scan plus the window. The batched results are verified
// bit-identical to solo runs before timing starts.
func BenchmarkServeBatch(b *testing.B) {
	const k = 8
	ds := batchBenchData(b, batchBenchRows)
	sks := batchBenchSketches(k)

	// Correctness gate ahead of the timed legs: one generously-windowed
	// batch must fold all K queries into a single scan whose members are
	// bit-identical to their solo runs.
	solo := make([]sketch.Result, k)
	for i, sk := range sks {
		var err error
		if solo[i], err = ds.Sketch(context.Background(), sk, nil); err != nil {
			b.Fatal(err)
		}
	}
	check := &dsRunner{ds: ds}
	cs := New(check, Config{MaxInFlight: k, Deadline: -1, BatchWindow: 300 * time.Millisecond})
	var wg sync.WaitGroup
	got := make([]sketch.Result, k)
	for i, sk := range sks {
		wg.Add(1)
		go func(i int, sk sketch.Sketch) {
			defer wg.Done()
			var err error
			if got[i], err = cs.RunSketch(context.Background(), "big", sk, nil); err != nil {
				b.Error(err)
			}
		}(i, sk)
	}
	wg.Wait()
	if b.Failed() {
		return
	}
	for i := range sks {
		if !deepEqualResult(got[i], solo[i]) {
			b.Fatalf("member %d: batched result differs from solo run", i)
		}
	}
	if n := check.count(); n > 2 {
		b.Fatalf("verification burst took %d leaf passes, want ≤2", n)
	}

	burst := func(b *testing.B, s *Scheduler) {
		var wg sync.WaitGroup
		for _, sk := range sks {
			wg.Add(1)
			go func(sk sketch.Sketch) {
				defer wg.Done()
				if _, err := s.RunSketch(context.Background(), "big", sk, nil); err != nil {
					b.Error(err)
				}
			}(sk)
		}
		wg.Wait()
	}
	b.Run("lone", func(b *testing.B) {
		// A table a tenth the size: the scan is a few ms, so a query that
		// sat the 50 ms window out is unmistakable.
		const window = 50 * time.Millisecond
		s := New(&dsRunner{ds: batchBenchData(b, batchBenchRows/10)}, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: window})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.RunSketch(context.Background(), "big", sks[i%k], nil); err != nil {
				b.Fatal(err)
			}
		}
		if perOp := b.Elapsed() / time.Duration(b.N); perOp > window/4 {
			b.Fatalf("a lone query took %v under a %v window: it waited", perOp, window)
		}
	})
	for _, leg := range []struct {
		name   string
		window time.Duration
	}{{"batched", 2 * time.Millisecond}, {"unbatched", 0}} {
		b.Run(leg.name, func(b *testing.B) {
			run := &dsRunner{ds: ds}
			s := New(run, Config{MaxInFlight: 2 * k, Deadline: -1, BatchWindow: leg.window})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burst(b, s)
			}
			b.StopTimer()
			scans := float64(run.count()) / float64(b.N)
			b.ReportMetric(scans, "scans/round")
			if leg.window > 0 && scans > 2 {
				b.Fatalf("batched burst of %d took %.1f leaf passes, want ≤ 2", k, scans)
			}
		})
	}
}

// deepEqualResult is reflect.DeepEqual behind a name the benchmark can
// use without importing reflect at every call site.
func deepEqualResult(a, b sketch.Result) bool { return reflect.DeepEqual(a, b) }

// BenchmarkServeTrace is the tracing-overhead A/B for BENCH_serving.json:
// the identical scan-bound query through the scheduler with a live trace
// attached (queue/exec spans, leaf-scan span, 1-in-16 sampled chunk
// spans, merge span, plus the tracer's ring record on Finish) vs fully
// untraced, legs interleaved in one process. The query is a 10M-row
// histogram so the per-query trace cost is measured against real work;
// acceptance is overhead below host noise.
func BenchmarkServeTrace(b *testing.B) {
	ds := batchBenchData(b, batchBenchRows)
	sk := &sketch.HistogramSketch{Col: "v", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 32)}
	tracer := obs.NewTracer(obs.DefaultTraceRing, 0, nil)
	for _, leg := range []struct {
		name string
		ctx  func() (context.Context, *obs.Trace)
	}{
		{"untraced", func() (context.Context, *obs.Trace) { return context.Background(), nil }},
		{"traced", func() (context.Context, *obs.Trace) {
			tr := tracer.Start("")
			return obs.WithTrace(context.Background(), tr), tr
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			s := New(&dsRunner{ds: ds}, Config{MaxInFlight: 4, Deadline: -1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx, tr := leg.ctx()
				if _, err := s.RunSketch(ctx, "big", sk, nil); err != nil {
					b.Fatal(err)
				}
				tr.Finish(nil)
			}
		})
	}
}
