package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Load())
	}
	if g.Load() != 0 {
		t.Errorf("gauge = %d, want 0", g.Load())
	}
}

// TestHistogramBucketGeometry pins the log-linear contract: every value
// lands in a bucket whose bounds contain it, with relative width below
// 1/2^histSubBits.
func TestHistogramBucketGeometry(t *testing.T) {
	values := []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64}
	for _, v := range values {
		i := histBucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("value %d: index %d out of range", v, i)
		}
		upper := histBucketUpper(i)
		if v >= upper && upper != math.MaxInt64 {
			// The top bucket clamps its bound to MaxInt64 (inclusive).
			t.Errorf("value %d: upper bound %d (bucket %d) not exclusive", v, upper, i)
		}
		if i > 0 {
			lower := histBucketUpper(i - 1)
			if v < lower && i != histBucketIndex(lower) {
				// v must be >= the previous bucket's upper bound unless the
				// two buckets are adjacent in the same decade.
				t.Errorf("value %d below bucket %d lower bound %d", v, i, lower)
			}
		}
	}
	// Indexes are monotone in the value.
	prev := -1
	for v := int64(0); v < 4096; v++ {
		i := histBucketIndex(v)
		if i < prev {
			t.Fatalf("bucket index regressed at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 in ns: p50 ≈ 500, p99 ≈ 990, within 12.5% relative error.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	check := func(q float64, want int64) {
		got := h.Quantile(q)
		lo, hi := float64(want)*0.875, float64(want)*1.25
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("q%.2f = %d, want within [%.0f, %.0f]", q, got, lo, hi)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
}

// TestPrometheusRendering checks the /metrics text against a minimal
// format validator: HELP/TYPE pairs, monotone cumulative buckets, +Inf
// equal to _count.
func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	g := r.Group("serve", "serve")
	c := g.Counter("admitted", "queries admitted")
	c.Add(5)
	g.GaugeFunc("in_flight", "queries executing", func() int64 { return 2 })
	h := g.Histogram("query_latency", "end-to-end query latency")
	for _, v := range []int64{1000, 2000, 1 << 20, 1 << 21} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE hillview_serve_admitted_total counter",
		"hillview_serve_admitted_total 5",
		"# TYPE hillview_serve_in_flight gauge",
		"hillview_serve_in_flight 2",
		"# TYPE hillview_serve_query_latency_seconds histogram",
		"hillview_serve_query_latency_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("invalid exposition text: %v\n%s", err, text)
	}
}

func TestRegistryGroupIdempotent(t *testing.T) {
	r := NewRegistry()
	g1 := r.Group("engine", "engine")
	g2 := r.Group("engine", "engine")
	if g1 != g2 {
		t.Fatal("Group not idempotent")
	}
	g1.CounterFunc("replays", "x", func() int64 { return 1 })
	g1.CounterFunc("replays", "x", func() int64 { return 2 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if strings.Count(sb.String(), "counter\nhillview_engine_replays_total ") != 1 {
		t.Errorf("duplicate metric registration rendered twice:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "hillview_engine_replays_total 2") {
		t.Errorf("re-registration did not replace the reader:\n%s", sb.String())
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	// Nil trace: every call is a no-op, including through context.
	var nilTr *Trace
	nilTr.Annotate("x", "")
	nilTr.StartSpan("y").End()
	nilTr.SetQuery("d", "s")
	nilTr.Finish(nil)
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}

	tr := NewTrace("")
	if len(tr.ID()) != 16 {
		t.Errorf("minted ID %q", tr.ID())
	}
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("context round-trip failed")
	}
	sp := tr.StartSpan("scan.leaf")
	time.Sleep(time.Millisecond)
	sp.EndNote("4 chunks")
	tr.Annotate("engine.cache_hit", "")
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "scan.leaf" || spans[0].Dur <= 0 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[1].Dur != 0 {
		t.Errorf("annotation has a duration: %+v", spans[1])
	}
}

func TestTraceSpanBound(t *testing.T) {
	tr := NewTrace("bounded")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tr.Annotate("spam", "")
	}
	if n := len(tr.Spans()); n != maxSpansPerTrace {
		t.Errorf("spans = %d, want %d", n, maxSpansPerTrace)
	}
	tr.mu.Lock()
	dropped := tr.dropped
	tr.mu.Unlock()
	if dropped != 10 {
		t.Errorf("dropped = %d, want 10", dropped)
	}
}

func TestTraceStitch(t *testing.T) {
	tr := NewTrace("root")
	worker := []Span{
		{Name: "worker.sketch", Start: 0, Dur: 5 * time.Millisecond},
		{Name: "scan.chunk", Start: time.Millisecond, Dur: 2 * time.Millisecond},
	}
	tr.Stitch(10*time.Millisecond, worker)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Start != 10*time.Millisecond || spans[1].Start != 11*time.Millisecond {
		t.Errorf("stitched offsets wrong: %+v", spans)
	}
}

func TestTracerRingAndSlowLog(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	tr := NewTracer(2, time.Nanosecond, logf) // everything is slow
	var ids []string
	for i := 0; i < 3; i++ {
		t1 := tr.Start("")
		t1.SetQuery("fl", "histogram(DepDelay)[0,60)x20")
		t1.StartSpan("serve.exec").End()
		t1.Finish(nil)
		ids = append(ids, t1.ID())
	}
	// Ring capacity 2: the first trace was evicted, the last two remain.
	if _, ok := tr.Get(ids[0]); ok {
		t.Error("evicted trace still resolvable")
	}
	for _, id := range ids[1:] {
		rec, ok := tr.Get(id)
		if !ok {
			t.Fatalf("trace %s missing from ring", id)
		}
		if rec.Dataset != "fl" || len(rec.Spans) != 1 {
			t.Errorf("record = %+v", rec)
		}
	}
	if tr.Finished() != 3 || tr.RingLen() != 2 {
		t.Errorf("finished=%d ring=%d", tr.Finished(), tr.RingLen())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("slow lines = %d, want 3", len(lines))
	}
	// The line carries the reproduction info: dataset, sketch kind and
	// bucket parameters, and the stage breakdown.
	for _, want := range []string{"slow-query trace=", `dataset="fl"`, `sketch="histogram(DepDelay)[0,60)x20"`, "serve.exec@"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("slow line missing %q: %s", want, lines[0])
		}
	}
	if strings.ContainsAny(lines[0], "\n") {
		t.Error("slow-query line is not a single line")
	}
}

func TestTracerDisabledSlowLog(t *testing.T) {
	called := false
	tr := NewTracer(2, 0, func(string, ...any) { called = true })
	t1 := tr.Start("x")
	t1.Finish(errors.New("boom"))
	if called {
		t.Error("slow log fired with threshold 0")
	}
	rec, ok := tr.Get("x")
	if !ok || rec.Err != "boom" {
		t.Errorf("record = %+v ok=%v", rec, ok)
	}
}

func TestTraceFinishIdempotent(t *testing.T) {
	tr := NewTracer(4, 0, nil)
	t1 := tr.Start("once")
	t1.Finish(nil)
	t1.Finish(nil)
	if tr.Finished() != 1 {
		t.Errorf("finished = %d, want 1", tr.Finished())
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer(8, 0, nil)
	t1 := tr.Start("conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := t1.StartSpan("scan.chunk")
				sp.EndNote("w")
				t1.Annotate("note", "")
			}
		}(i)
	}
	wg.Wait()
	t1.Finish(nil)
	if rec, ok := tr.Get("conc"); !ok || len(rec.Spans) != maxSpansPerTrace {
		t.Errorf("spans = %d (ok=%v), want %d", len(rec.Spans), ok, maxSpansPerTrace)
	}
}
