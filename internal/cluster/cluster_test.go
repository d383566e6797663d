package cluster

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

func init() { flights.Register() }

// startWorkers launches n workers on loopback and returns a connected
// cluster plus the worker handles.
func startWorkers(t *testing.T, n int) (*Cluster, []*Worker) {
	t.Helper()
	cfg := engine.Config{AggregationWindow: time.Millisecond}
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(storage.NewLoader(cfg, 0, nil))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = addr
	}
	c, err := Connect(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, workers
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	in := &Envelope{
		ReqID:  7,
		Kind:   MsgSketch,
		Sketch: &sketch.RangeSketch{Col: "x"},
	}
	if err := fc.send(in); err != nil {
		t.Fatal(err)
	}
	out, err := fc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if out.ReqID != 7 || out.Kind != MsgSketch {
		t.Fatalf("frame = %+v", out)
	}
	if out.Sketch.Name() != in.Sketch.Name() {
		t.Errorf("sketch lost: %q", out.Sketch.Name())
	}
	if fc.BytesIn() == 0 || fc.stats().BytesOut == 0 || fc.BytesIn() != fc.stats().BytesOut {
		t.Errorf("byte accounting: in=%d out=%d", fc.BytesIn(), fc.stats().BytesOut)
	}
}

func TestWorkerLoadAndSketch(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	leaves, err := cl.Load(ctx, "fl", "flights:rows=20000,parts=4,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if leaves != 4 {
		t.Fatalf("leaves = %d", leaves)
	}
	sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 20)}
	var partials int32
	res, err := cl.Sketch(ctx, "fl", sk, func(engine.Partial) { atomic.AddInt32(&partials, 1) })
	if err != nil {
		t.Fatal(err)
	}
	// Compare with a local computation on identical data.
	local := engine.NewLocal("fl", flights.GenPartitions("fl", 20000, 4, 3, flights.CoreColumns), engine.Config{AggregationWindow: -1})
	want, err := local.Sketch(ctx, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Error("remote result differs from local")
	}
	if atomic.LoadInt32(&partials) == 0 {
		t.Error("no partials streamed over the wire")
	}
	if c.BytesReceived() == 0 {
		t.Error("no bytes accounted")
	}
	// Summaries are small: a 20-bucket histogram (plus partials) must be
	// a few KB, nothing like the 20000-row data.
	if got := c.BytesReceived(); got > 64*1024 {
		t.Errorf("root received %d bytes for a tiny summary", got)
	}
}

func TestWorkerMap(t *testing.T) {
	c, w := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "fl", "flights:rows=5000,parts=2,seed=1"); err != nil {
		t.Fatal(err)
	}
	leaves, err := cl.MapOp(ctx, "fl", "ua", engine.FilterOp{Predicate: `Carrier == "UA"`})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != 2 {
		t.Fatalf("leaves = %d", leaves)
	}
	res, err := cl.Sketch(ctx, "ua", &sketch.MisraGriesSketch{Col: "Carrier", K: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := res.(*sketch.HeavyHitters).Hitters()
	if len(hits) != 1 || hits[0].Value.S != "UA" {
		t.Fatalf("filtered heavy hitters = %+v", hits)
	}
	if w[0].NumDatasets() != 2 {
		t.Errorf("worker datasets = %d", w[0].NumDatasets())
	}
}

func TestWorkerErrors(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "x", "nosuchscheme:zz"); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := cl.Sketch(ctx, "ghost", &sketch.RangeSketch{Col: "a"}, nil); !errors.Is(err, engine.ErrMissingDataset) {
		t.Errorf("ghost dataset error = %v", err)
	}
	if _, err := cl.Load(ctx, "fl", "flights:rows=100,parts=1,seed=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sketch(ctx, "fl", &sketch.RangeSketch{Col: "NoCol"}, nil); err == nil {
		t.Error("unknown column should fail remotely")
	}
	if _, err := cl.MapOp(ctx, "fl", "bad", engine.FilterOp{Predicate: "syntax error ("}); err == nil {
		t.Error("bad predicate should fail remotely")
	}
}

func TestClusterRootEndToEnd(t *testing.T) {
	c, _ := startWorkers(t, 3)
	root := engine.NewRoot(c.Loader())
	// {worker} expansion gives each worker a distinct shard.
	if _, err := root.Load("fl", "flights:rows=10000,parts=2,seed=10{worker}"); err != nil {
		t.Fatal(err)
	}
	ds, err := root.Get("fl")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLeaves() != 6 {
		t.Fatalf("leaves = %d", ds.NumLeaves())
	}
	// Distributed filter + histogram with partial streaming.
	if _, err := root.Filter("fl", "delayed", "DepDelay > 30"); err != nil {
		t.Fatal(err)
	}
	var partials int32
	res, err := root.RunSketch(context.Background(), "delayed",
		&sketch.HistogramSketch{Col: "DepDelay", Buckets: sketch.NumericBuckets(table.KindDouble, 30, 500, 20)},
		func(engine.Partial) { atomic.AddInt32(&partials, 1) })
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*sketch.Histogram)
	if h.TotalCount() == 0 {
		t.Error("no delayed flights found")
	}
	if h.OutOfRange != 0 {
		t.Errorf("delayed filter leaked %d out-of-range rows", h.OutOfRange)
	}
	if atomic.LoadInt32(&partials) == 0 {
		t.Error("no partials reached the root")
	}
}

func TestClusterWorkerRestartRecovery(t *testing.T) {
	c, workers := startWorkers(t, 2)
	root := engine.NewRoot(c.Loader())
	if _, err := root.Load("fl", "flights:rows=8000,parts=2,seed=5{worker}"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Filter("fl", "west", `OriginState == "CA"`); err != nil {
		t.Fatal(err)
	}
	sk := &sketch.MisraGriesSketch{Col: "Origin", K: 10}
	want, err := root.RunSketch(context.Background(), "west", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both workers "restart": soft state gone, processes alive.
	workers[0].DropAll()
	workers[1].DropAll()
	// The cached result still serves (deterministic sketch)...
	if _, err := root.RunSketch(context.Background(), "west", sk, nil); err != nil {
		t.Fatal(err)
	}
	// ...and a fresh (uncacheable) sketch forces replay through the
	// missing lineage: load on both workers, filter re-applied.
	q := &sketch.QuantileSketch{Order: table.Asc("Distance"), SampleSize: 50, Seed: 3}
	if _, err := root.RunSketch(context.Background(), "west", q, nil); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if workers[0].NumDatasets() == 0 || workers[1].NumDatasets() == 0 {
		t.Error("replay did not rebuild worker state")
	}
	// Replayed deterministic results match pre-crash results.
	root.Cache().InvalidateDataset("west")
	got, err := root.RunSketch(context.Background(), "west", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("replayed summary differs from pre-crash summary")
	}
}

// cancelWaitSketch folds the partition named Free at once and holds
// every other partition until its scan's cancellation probe fires, so a
// query over more than one partition can only end by being cancelled:
// the test below does not bet on leaf work outlasting a wire round trip.
// It crosses the wire under the test-only sketch tag.
type cancelWaitSketch struct{ Free string }

func (s *cancelWaitSketch) Name() string        { return "cancel-wait" }
func (s *cancelWaitSketch) Zero() sketch.Result { return &sketch.Moments{} }

// Merge implements sketch.Sketch: every summary is Zero's.
func (s *cancelWaitSketch) Merge(a, b sketch.Result) (sketch.Result, error) { return a, nil }

// Summarize polls the membership: the engine's cancellation wrapper
// yields no rows from FillBatch once the query's context is done.
func (s *cancelWaitSketch) Summarize(t *table.Table) (sketch.Result, error) {
	buf := make([]int32, 1)
	for t.ID() != s.Free {
		if n, _ := t.Members().FillBatch(buf, 0); n == 0 {
			break
		}
		runtime.Gosched()
	}
	return s.Zero(), nil
}

func init() { sketch.RegisterSketch(sketch.TagTestSketch, &cancelWaitSketch{}) }

func TestClusterCancellation(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	if _, err := cl.Load(context.Background(), "parts", "flights:rows=4000,parts=4,seed=2"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the partial callback: the first partial reports
	// the free partition, and every other one waits for the cancel.
	_, err := cl.Sketch(ctx, "parts", &cancelWaitSketch{Free: "parts-p0"},
		func(p engine.Partial) {
			if p.Done >= 1 && p.Done < p.Total {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	// The connection stays healthy for the next request.
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatalf("connection broken after cancel: %v", err)
	}
}

func TestClusterConcurrentRequests(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "fl", "flights:rows=30000,parts=8,seed=4"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 10+i)}
			res, err := cl.Sketch(ctx, "fl", sk, nil)
			if err != nil {
				errs[i] = err
				return
			}
			if got := len(res.(*sketch.Histogram).Counts); got != 10+i {
				errs[i] = errors.New("wrong histogram came back (multiplexing mix-up)")
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExpandSource(t *testing.T) {
	if got := ExpandSource("dir:/data/shard-{worker}", 3); got != "dir:/data/shard-3" {
		t.Errorf("ExpandSource = %q", got)
	}
	if got := ExpandSource("file:/x.csv", 1); got != "file:/x.csv" {
		t.Errorf("no-placeholder source changed: %q", got)
	}
	if !strings.Contains(ExpandSource("a{worker}b{worker}", 2), "a2b2") {
		t.Error("multiple placeholders")
	}
}

func TestConnectFailure(t *testing.T) {
	// Negative dial budget = single attempt; the default budget would
	// retry a dead address for seconds before giving up.
	opts := Options{DialRetryBudget: -1}
	if _, err := ConnectOptions(nil, []string{"127.0.0.1:1"}, engine.Config{}, opts); err == nil {
		t.Error("connecting to a dead address should fail")
	}
	if _, err := ConnectOptions(nil, nil, engine.Config{}, opts); err == nil {
		t.Error("connecting to zero addresses should fail")
	}
}
