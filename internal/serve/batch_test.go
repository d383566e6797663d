package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
)

// dsRunner runs sketches against one real LocalDataSet, counting leaf
// passes; the count is the "one scan per batch" oracle.
type dsRunner struct {
	ds    *engine.LocalDataSet
	calls int64
	mu    sync.Mutex
}

func (r *dsRunner) RunSketch(ctx context.Context, _ string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	return r.ds.Sketch(ctx, sk, onPartial)
}

func (r *dsRunner) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// batchFixture builds a small real dataset plus K distinct cacheable
// sketches over it and their solo ground-truth results.
func batchFixture(t testing.TB, k int) (*dsRunner, []sketch.Sketch, []sketch.Result) {
	t.Helper()
	parts, info := table.GenPartitions("bt", 11, 300, 12)
	ds := engine.NewLocal("d", parts, engine.Config{Parallelism: 2, AggregationWindow: -1})
	sks := make([]sketch.Sketch, k)
	want := make([]sketch.Result, k)
	for i := range sks {
		switch i % 3 {
		case 0:
			sks[i] = &sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 4+i)}
		case 1:
			sks[i] = &sketch.RangeSketch{Col: []string{"gd", "gi", "gt"}[(i/3)%3]}
		default:
			sks[i] = &sketch.MisraGriesSketch{Col: "gs", K: 4 + i}
		}
		var err error
		want[i], err = ds.Sketch(context.Background(), sks[i], nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	return &dsRunner{ds: ds}, sks, want
}

// blocker makes "a busy dataset" a state a test builds, not a race it
// wins: it decorates a runner and holds executions of blockerSketch at a
// gate, so a flight is provably in the air while the test submits the
// queries that must gather behind it. Everything else — the cache probe
// and the generation too, when the inner runner has them — passes
// straight through.
type blocker struct {
	Runner
	started chan struct{} // one token per blocker execution
	gate    chan struct{}
}

var blockerSketch = &sketch.DistinctCountSketch{Col: "blocker"}

func newBlocker(run Runner) *blocker {
	return &blocker{Runner: run, started: make(chan struct{}, 4), gate: make(chan struct{})}
}

func (b *blocker) RunSketch(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	if sk != sketch.Sketch(blockerSketch) {
		return b.Runner.RunSketch(ctx, d, sk, onPartial)
	}
	b.started <- struct{}{}
	select {
	case <-b.gate:
		return int64(0), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blocker) Cached(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, bool) {
	if cp, ok := b.Runner.(CacheProber); ok {
		return cp.Cached(ctx, d, sk, onPartial)
	}
	return nil, false
}

func (b *blocker) DatasetGeneration(id string) uint64 {
	if gp, ok := b.Runner.(engine.GenerationProvider); ok {
		return gp.DatasetGeneration(id)
	}
	return 0
}

// hold puts the blocker query in flight on dataset "d" and returns once
// it is executing. release lets it finish and waits for it.
func (b *blocker) hold(t testing.TB, s *Scheduler) (release func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := s.RunSketch(context.Background(), "d", blockerSketch, nil)
		done <- err
	}()
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never started executing")
	}
	return func() {
		t.Helper()
		close(b.gate)
		if err := <-done; err != nil {
			t.Errorf("blocker: %v", err)
		}
	}
}

// waitFor polls cond under s.mu until it holds.
func waitFor(t testing.TB, s *Scheduler, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// closeWindow waits until n flights have gathered behind batchID and
// closes their window by hand — the tests that use it run under
// BatchWindow: time.Hour, so the timer is never what forms the batch.
func closeWindow(t testing.TB, s *Scheduler, batchID string, n int) {
	t.Helper()
	waitFor(t, s, "the window to fill", func() bool { return len(s.batches[batchID]) == n })
	s.formBatch(batchID, "d")
}

// drained fails the test unless the scheduler holds no flight, no open
// window and no busy count: a leaked count would silently bring the
// window wait back for every later query on that dataset.
func drained(t testing.TB, s *Scheduler) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.flights) != 0 || len(s.batches) != 0 || len(s.busy) != 0 {
		t.Errorf("scheduler not drained: %d flights, %d windows, busy %v", len(s.flights), len(s.batches), s.busy)
	}
}

// TestBatchCoalescesDistinctQueries is the batching contract: K distinct
// cacheable queries gathered behind a busy dataset execute as a single
// underlying scan, and every subscriber's result is bit-identical to its
// solo run.
func TestBatchCoalescesDistinctQueries(t *testing.T) {
	const k = 4
	run, sks, want := batchFixture(t, k)
	blk := newBlocker(run)
	s := New(blk, Config{MaxInFlight: k, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)

	got := make([]sketch.Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sks[i], nil)
		}(i)
	}
	closeWindow(t, s, "d", k)
	wg.Wait()
	release()
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("member %d (%s): batched result differs from solo run", i, sks[i].Name())
		}
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
	st := s.Stats()
	if st.BatchesFormed != 1 || st.BatchMembers != k || st.ScansSaved != k-1 {
		t.Errorf("stats = formed %d members %d saved %d, want 1/%d/%d", st.BatchesFormed, st.BatchMembers, st.ScansSaved, k, k-1)
	}
	drained(t, s)
}

// TestIdleDatasetSkipsWindow: with nothing else in the air on its
// dataset a cacheable miss starts at once — under a one-hour window it
// returns promptly, gathers in no window and records no
// serve.batch_window span.
func TestIdleDatasetSkipsWindow(t *testing.T) {
	run, sks, want := batchFixture(t, 1)
	s := New(run, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: time.Hour})
	tr := obs.NewTrace("lone")
	done := make(chan struct{})
	var got sketch.Result
	var err error
	go func() {
		defer close(done)
		got, err = s.RunSketch(obs.WithTrace(context.Background(), tr), "d", sks[0], nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a lone query on an idle dataset waited for the batch window")
	}
	if err != nil || !reflect.DeepEqual(got, want[0]) {
		t.Errorf("err %v, result equal to solo: %v", err, reflect.DeepEqual(got, want[0]))
	}
	for _, sp := range tr.Spans() {
		if sp.Name == "serve.batch_window" {
			t.Error("a query that did not wait recorded a serve.batch_window span")
		}
	}
	if st := s.Stats(); st.Execs != 1 || st.BatchesFormed != 0 {
		t.Errorf("stats = %d execs, %d batches, want 1 and 0", st.Execs, st.BatchesFormed)
	}
	drained(t, s)
}

// TestBusyDatasetStillGathers: behind a scan in flight, arrivals within
// the window share one pass when the timer — not the test — closes it,
// and each records the wait as a serve.batch_window span.
func TestBusyDatasetStillGathers(t *testing.T) {
	const k = 3
	run, sks, want := batchFixture(t, k)
	blk := newBlocker(run)
	s := New(blk, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: 500 * time.Millisecond})
	release := blk.hold(t, s)
	defer release()

	traces := make([]*obs.Trace, k)
	got := make([]sketch.Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		traces[i] = obs.NewTrace("gathered")
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(obs.WithTrace(context.Background(), traces[i]), "d", sks[i], nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("member %d: err %v, result equal to solo: %v", i, errs[i], reflect.DeepEqual(got[i], want[i]))
		}
		var waited bool
		for _, sp := range traces[i].Spans() {
			waited = waited || sp.Name == "serve.batch_window"
		}
		if !waited {
			t.Errorf("member %d gathered but has no serve.batch_window span", i)
		}
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
}

// TestSimultaneousArrivalsCostTwoScans pins the one documented change of
// semantics: K arrivals on an idle dataset at the same instant are two
// scans — the first starts at once, the other K−1 share one pass behind
// it — where a window opened by the first made it one.
func TestSimultaneousArrivalsCostTwoScans(t *testing.T) {
	const k = 5
	run, sks, want := batchFixture(t, k)
	gate := make(chan struct{})
	gated := &fakeRunner{fn: func(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		<-gate // "the same instant": nothing finishes before all have arrived
		return run.RunSketch(ctx, d, sk, onPartial)
	}}
	s := New(gated, Config{MaxInFlight: k, Deadline: -1, BatchWindow: time.Hour})
	got := make([]sketch.Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sks[i], nil)
		}(i)
	}
	closeWindow(t, s, "d", k-1)
	close(gate)
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("member %d: err %v, result equal to solo: %v", i, errs[i], reflect.DeepEqual(got[i], want[i]))
		}
	}
	if n := run.count(); n != 2 {
		t.Errorf("underlying scans = %d, want 2", n)
	}
	if st := s.Stats(); st.BatchesFormed != 1 || st.BatchMembers != k-1 {
		t.Errorf("stats = formed %d members %d, want 1/%d", st.BatchesFormed, st.BatchMembers, k-1)
	}
	drained(t, s)
}

// TestColumnlessSketchLaunchesAlone: a MetaSketch declares no columns,
// so a batch holding it would acquire every column of every partition.
// Behind a busy dataset, with a window open, it launches at once on its
// own pass, and the queries gathered there share one pass over only
// their own columns.
func TestColumnlessSketchLaunchesAlone(t *testing.T) {
	const k = 3
	run, sks, want := batchFixture(t, k)
	var (
		mu     sync.Mutex
		passes []sketch.Sketch
	)
	spy := &fakeRunner{fn: func(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		mu.Lock()
		passes = append(passes, sk)
		mu.Unlock()
		return run.RunSketch(ctx, d, sk, onPartial)
	}}
	blk := newBlocker(spy)
	s := New(blk, Config{MaxInFlight: k + 2, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)

	got := make([]sketch.Result, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sks[i], nil)
		}(i)
	}
	waitFor(t, s, "the window to fill", func() bool { return len(s.batches["d"]) == k })
	// The window is an hour long and still open: only a launch of its own
	// lets the MetaSketch return.
	var (
		res  sketch.Result
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		res, err = s.RunSketch(context.Background(), "d", &sketch.MetaSketch{}, nil)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the MetaSketch waited in the window behind the busy dataset")
	}
	if err != nil {
		t.Fatal(err)
	}
	if m := res.(*sketch.TableMeta); m.Leaves != run.ds.NumLeaves() || m.Schema == nil {
		t.Errorf("MetaSketch = %d leaves (schema %v), want %d", m.Leaves, m.Schema, run.ds.NumLeaves())
	}
	closeWindow(t, s, "d", k)
	wg.Wait()
	release()
	for i := 0; i < k; i++ {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("member %d: err %v, result equal to solo: %v", i, errs[i], reflect.DeepEqual(got[i], want[i]))
		}
	}
	if len(passes) != 2 {
		t.Fatalf("%d passes, want 2 (the MetaSketch alone, then the batch): %v", len(passes), passes)
	}
	if _, ok := passes[0].(*sketch.MetaSketch); !ok {
		t.Errorf("first pass is %s, want the MetaSketch on its own", passes[0].Name())
	}
	multi, ok := passes[1].(*sketch.MultiSketch)
	if !ok || len(multi.Sketches) != k {
		t.Fatalf("second pass is %s, want the %d gathered queries as one MultiSketch", passes[1].Name(), k)
	}
	var union []string
	for _, m := range sks {
		union = append(union, sketch.SketchColumns(m)...)
	}
	if cols := sketch.SketchColumns(multi); cols == nil || len(cols) > len(union) {
		t.Errorf("batch acquires columns %v, want a subset of its members' %v", cols, union)
	}
	drained(t, s)
}

// TestBatchDemuxesPartials: each batch subscriber's partial stream must
// carry only its own sketch's summary type, with monotone progress and
// the final partial equal to its returned result.
func TestBatchDemuxesPartials(t *testing.T) {
	parts, info := table.GenPartitions("bp", 13, 128, 36)
	ds := engine.NewLocal("d", parts, engine.Config{Parallelism: 2, AggregationWindow: time.Nanosecond})
	run := &dsRunner{ds: ds}
	hist := &sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 6)}
	rng := &sketch.RangeSketch{Col: "gi"}
	blk := newBlocker(run)
	s := New(blk, Config{MaxInFlight: 3, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)

	type stream struct {
		mu  sync.Mutex
		ps  []engine.Partial
		res sketch.Result
		err error
	}
	streams := [2]*stream{{}, {}}
	var wg sync.WaitGroup
	for i, sk := range []sketch.Sketch{hist, rng} {
		wg.Add(1)
		go func(i int, sk sketch.Sketch) {
			defer wg.Done()
			st := streams[i]
			st.res, st.err = s.RunSketch(context.Background(), "d", sk, func(p engine.Partial) {
				st.mu.Lock()
				st.ps = append(st.ps, p)
				st.mu.Unlock()
			})
		}(i, sk)
	}
	closeWindow(t, s, "d", 2)
	wg.Wait()
	release()
	for i, st := range streams {
		if st.err != nil {
			t.Fatalf("member %d: %v", i, st.err)
		}
		if len(st.ps) == 0 {
			t.Fatalf("member %d: no partials", i)
		}
		prev := 0
		for j, p := range st.ps {
			if i == 0 {
				if _, ok := p.Result.(*sketch.Histogram); !ok {
					t.Fatalf("member 0 partial %d is %T, want *sketch.Histogram", j, p.Result)
				}
			} else {
				if _, ok := p.Result.(*sketch.DataRange); !ok {
					t.Fatalf("member 1 partial %d is %T, want *sketch.DataRange", j, p.Result)
				}
			}
			if p.Done < prev {
				t.Errorf("member %d: Done regressed %d -> %d", i, prev, p.Done)
			}
			prev = p.Done
		}
		last := st.ps[len(st.ps)-1]
		if last.Done != last.Total {
			t.Errorf("member %d: stream did not end with the completion partial", i)
		}
		if !reflect.DeepEqual(last.Result, st.res) {
			t.Errorf("member %d: final partial differs from returned result", i)
		}
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
}

// TestBatchMemberCancellation: cancelling one member's context mid-scan
// fails only that member; the batch keeps running and the surviving
// members' results stay bit-identical to their solo runs.
func TestBatchMemberCancellation(t *testing.T) {
	run, sks, want := batchFixture(t, 3)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := &fakeRunner{fn: func(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return run.RunSketch(ctx, d, sk, onPartial)
	}}
	blk := newBlocker(gated)
	s := New(blk, Config{MaxInFlight: 3, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)

	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	got, errs, wg := runAll(s, ctx0, sks)
	closeWindow(t, s, "d", 3)
	release()
	<-started // the batch has formed and begun executing
	cancel0()
	// Member 0 must return promptly with its own cancellation while the
	// batch is still gated.
	waitFor(t, s, "the cancelled member to detach", func() bool { return len(s.flights) == 2 })
	close(gate)
	wg.Wait()

	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("cancelled member err = %v, want context.Canceled", errs[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] != nil {
			t.Fatalf("surviving member %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("surviving member %d: result differs from solo run", i)
		}
	}
	st := s.Stats()
	if st.BatchesFormed != 1 || st.BatchMembers != 3 {
		t.Errorf("stats = formed %d members %d, want 1/3", st.BatchesFormed, st.BatchMembers)
	}
	drained(t, s)
}

// TestBatchAllMembersCancelled: when every member abandons the batch —
// here a group, whose members all hang on one caller — the shared
// execution's context is cancelled: the scan does not keep burning cores
// for an audience of zero.
func TestBatchAllMembersCancelled(t *testing.T) {
	_, sks, _ := batchFixture(t, 2)
	execCancelled := make(chan struct{})
	started := make(chan struct{}, 1)
	gated := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		close(execCancelled)
		return nil, ctx.Err()
	}}
	s := New(gated, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: time.Hour})
	group, err := sketch.NewMultiSketch(sks...)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.RunSketch(ctx, "d", group, nil)
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("group err = %v, want context.Canceled", err)
	}
	select {
	case <-execCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("batch execution not cancelled after every member left")
	}
	if st := s.Stats(); st.Cancelled != 1 || st.BatchMembers != 2 {
		t.Errorf("stats = %d cancelled, %d batch members, want 1 and 2", st.Cancelled, st.BatchMembers)
	}
	waitFor(t, s, "the cancelled pass to finish", func() bool { return s.inflight.Load() == 0 })
	drained(t, s)
}

// TestBatchDedupJoins: identical queries inside one window share a
// member instead of adding one, and both subscribers get the result.
func TestBatchDedupJoins(t *testing.T) {
	run, sks, want := batchFixture(t, 2)
	blk := newBlocker(run)
	s := New(blk, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)

	got := make([]sketch.Result, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, sk := range []sketch.Sketch{sks[0], sks[1], sks[0]} {
		wg.Add(1)
		go func(i int, sk sketch.Sketch) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sk, nil)
		}(i, sk)
	}
	waitFor(t, s, "the duplicate to join", func() bool { return s.dedups.Load() == 1 })
	closeWindow(t, s, "d", 2)
	wg.Wait()
	release()
	for i, wanti := range []sketch.Result{want[0], want[1], want[0]} {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], wanti) {
			t.Errorf("query %d: result differs from solo run", i)
		}
	}
	st := s.Stats()
	if st.DedupJoins != 1 {
		t.Errorf("dedup joins = %d, want 1", st.DedupJoins)
	}
	if st.BatchMembers != 2 {
		t.Errorf("batch members = %d, want 2 (identical queries share one member)", st.BatchMembers)
	}
	if n := run.count(); n != 1 {
		t.Errorf("underlying scans = %d, want 1", n)
	}
}

// TestBatchSingletonRunsSolo: a window that closes with one member must
// execute exactly the solo path — the runner sees the original sketch,
// not a MultiSketch, and no batch is counted.
func TestBatchSingletonRunsSolo(t *testing.T) {
	run, sks, want := batchFixture(t, 1)
	var seen sketch.Sketch
	spy := &fakeRunner{fn: func(ctx context.Context, d string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		seen = sk
		return run.RunSketch(ctx, d, sk, onPartial)
	}}
	blk := newBlocker(spy)
	s := New(blk, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)
	go closeWindow(t, s, "d", 1)
	got, err := s.RunSketch(context.Background(), "d", sks[0], nil)
	release()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[0]) {
		t.Error("singleton result differs from solo run")
	}
	if _, ok := seen.(*sketch.MultiSketch); ok {
		t.Error("singleton window wrapped the sketch in a MultiSketch")
	}
	if st := s.Stats(); st.BatchesFormed != 0 || st.ScansSaved != 0 {
		t.Errorf("stats = formed %d saved %d, want 0/0", st.BatchesFormed, st.ScansSaved)
	}
}

// TestBatchWindowZeroIsTodaysBehavior: with BatchWindow 0 the batching
// layer is inert — distinct queries execute independently and no batch
// telemetry moves.
func TestBatchWindowZeroIsTodaysBehavior(t *testing.T) {
	run, sks, want := batchFixture(t, 2)
	s := New(run, Config{MaxInFlight: 2, Deadline: -1})
	got := make([]sketch.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.RunSketch(context.Background(), "d", sks[i], nil)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: result differs", i)
		}
	}
	if n := run.count(); n != 2 {
		t.Errorf("underlying scans = %d, want 2", n)
	}
	if st := s.Stats(); st.BatchesFormed != 0 || st.BatchMembers != 0 || st.ScansSaved != 0 {
		t.Errorf("batch telemetry moved with batching disabled: %+v", st)
	}
}

// TestCacheHitSkipsBatchWindow: a verbatim repeat of a finished query
// is answered from the engine's computation cache before the scheduler
// does any waiting — well inside a 50 ms window, with exactly one more
// cache hit, no extra miss, no admission, and no serve.batch_window
// span on its trace.
func TestCacheHitSkipsBatchWindow(t *testing.T) {
	parts, info := table.GenPartitions("ch", 11, 1200, 3)
	root := engine.NewRoot(func(id, _ string) (engine.IDataSet, error) {
		return engine.NewLocal(id, parts, engine.Config{AggregationWindow: -1}), nil
	})
	if _, err := root.Load("d", "mem"); err != nil {
		t.Fatal(err)
	}
	const window = 50 * time.Millisecond
	s := New(root, Config{MaxInFlight: 2, Deadline: -1, BatchWindow: window})
	sk := &sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 9)}

	first, err := s.RunSketch(context.Background(), "d", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := root.Cache().Stats()
	admitted0 := s.Stats().Admitted

	tr := obs.NewTrace("repeat")
	var partials []engine.Partial
	start := time.Now()
	again, err := s.RunSketch(obs.WithTrace(context.Background(), tr), "d", sk, func(p engine.Partial) { partials = append(partials, p) })
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("cached repeat differs from the first run")
	}
	if elapsed >= window/2 {
		t.Errorf("cached repeat took %v; it waited out the %v batch window", elapsed, window)
	}
	if hits, misses := root.Cache().Stats(); hits != hits0+1 || misses != misses0 {
		t.Errorf("cache hits/misses moved %d/%d, want +1/+0", hits-hits0, misses-misses0)
	}
	if got := s.Stats().Admitted; got != admitted0 {
		t.Errorf("cached repeat was admitted for execution (%d -> %d)", admitted0, got)
	}
	if len(partials) != 1 || partials[0].Done != 1 || partials[0].Total != 1 {
		t.Errorf("cached repeat partials = %+v, want one Done=1/Total=1", partials)
	}
	var sawHit bool
	for _, sp := range tr.Spans() {
		if sp.Name == "serve.batch_window" {
			t.Error("cached repeat recorded a serve.batch_window span")
		}
		sawHit = sawHit || sp.Name == "engine.cache_hit"
	}
	if !sawHit {
		t.Error("cached repeat carries no engine.cache_hit annotation")
	}

	// A miss is counted once — by the run, not again by the probe.
	other := &sketch.RangeSketch{Col: "gi"}
	if _, err := s.RunSketch(context.Background(), "d", other, nil); err != nil {
		t.Fatal(err)
	}
	if _, misses := root.Cache().Stats(); misses != misses0+1 {
		t.Errorf("one uncached query counted %d misses, want 1", misses-misses0)
	}
}

// gatedDataSet holds every Sketch call at a gate (when one is armed), so
// a test can act between the engine root reading the dataset's
// generation and the scan that follows.
type gatedDataSet struct {
	engine.IDataSet
	entered chan struct{} // one token per Sketch call, never blocks
	gate    chan struct{} // nil: pass straight through
}

func (g *gatedDataSet) Sketch(ctx context.Context, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	if g.gate != nil {
		<-g.gate
	}
	return g.IDataSet.Sketch(ctx, sk, onPartial)
}

// publishFixture is an engine root over one gated in-memory dataset "d",
// three distinct cacheable sketches, and their solo results.
func publishFixture(t *testing.T, gated bool) (*engine.Root, *gatedDataSet, []sketch.Sketch, []sketch.Result) {
	t.Helper()
	parts, info := table.GenPartitions("pb", 17, 256, 18)
	local := engine.NewLocal("d", parts, engine.Config{Parallelism: 2, AggregationWindow: -1})
	ds := &gatedDataSet{IDataSet: local, entered: make(chan struct{}, 8)}
	if gated {
		ds.gate = make(chan struct{})
	}
	root := engine.NewRoot(func(string, string) (engine.IDataSet, error) { return ds, nil })
	if _, err := root.Load("d", "mem"); err != nil {
		t.Fatal(err)
	}
	sks := []sketch.Sketch{
		&sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 7)},
		&sketch.RangeSketch{Col: "gi"},
		&sketch.MisraGriesSketch{Col: "gs", K: 6},
	}
	want := make([]sketch.Result, len(sks))
	for i, sk := range sks {
		var err error
		if want[i], err = local.Sketch(context.Background(), sk, nil); err != nil {
			t.Fatal(err)
		}
	}
	return root, ds, sks, want
}

// runAll submits every sketch concurrently — member 0 under ctx0, the
// rest under the background context — and returns the slots the results
// land in; wait on wg before reading them.
func runAll(s *Scheduler, ctx0 context.Context, sks []sketch.Sketch) (got []sketch.Result, errs []error, wg *sync.WaitGroup) {
	got, errs, wg = make([]sketch.Result, len(sks)), make([]error, len(sks)), &sync.WaitGroup{}
	for i := range sks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i == 0 {
				ctx = ctx0
			}
			got[i], errs[i] = s.RunSketch(ctx, "d", sks[i], nil)
		}(i)
	}
	return got, errs, wg
}

// TestBatchPublishesMembers: distinct cacheable queries that shared one
// pass — gathered behind a busy dataset, or submitted as one group — are
// each in the computation cache afterwards, under their own keys,
// holding the bits of a solo run: every one of them repeats as a hit
// with no new execution, and the group repeats without even a slot. The
// pass cost each member one counted miss, as a solo run would have.
func TestBatchPublishesMembers(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		name := map[bool]string{false: "windowed", true: "grouped"}[grouped]
		t.Run(name, func(t *testing.T) {
			root, _, sks, want := publishFixture(t, false)
			blk := newBlocker(root)
			s := New(blk, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})
			group, err := sketch.NewMultiSketch(sks...)
			if err != nil {
				t.Fatal(err)
			}
			hits0, misses0 := root.Cache().Stats()
			got := make([]sketch.Result, len(sks))
			if grouped {
				var partials []engine.Partial
				res, err := s.RunSketch(context.Background(), "d", group, func(p engine.Partial) { partials = append(partials, p) })
				if err != nil {
					t.Fatal(err)
				}
				got = res.(*sketch.MultiResult).Members
				if len(partials) == 0 || !reflect.DeepEqual(partials[len(partials)-1].Result, res) {
					t.Errorf("group's %d partials do not end with its result", len(partials))
				}
			} else {
				release := blk.hold(t, s)
				var errs []error
				var wg *sync.WaitGroup
				got, errs, wg = runAll(s, context.Background(), sks)
				closeWindow(t, s, "d", len(sks))
				wg.Wait()
				release()
				for i, err := range errs {
					if err != nil {
						t.Fatalf("member %d: %v", i, err)
					}
				}
			}
			for i := range sks {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("member %d (%s): batched result differs from solo run", i, sks[i].Name())
				}
			}
			execs := s.Stats().Execs // the windowed pass ran beside the blocker's execution
			if st := s.Stats(); st.BatchesFormed != 1 || st.BatchMembers != int64(len(sks)) {
				t.Fatalf("first sight: %d batches of %d members; want one pass for all %d", st.BatchesFormed, st.BatchMembers, len(sks))
			}
			hits1, misses1 := root.Cache().Stats()
			if hits1 != hits0 || misses1-misses0 != int64(len(sks)) {
				t.Errorf("first sight: %d hits, %d misses, want 0 and %d", hits1-hits0, misses1-misses0, len(sks))
			}
			for i, sk := range sks {
				again, err := s.RunSketch(context.Background(), "d", sk, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, want[i]) {
					t.Errorf("member %d (%s): cached repeat differs from solo run", i, sk.Name())
				}
			}
			admitted := s.Stats().Admitted
			again, err := s.RunSketch(context.Background(), "d", group, nil)
			if err != nil || !reflect.DeepEqual(again.(*sketch.MultiResult).Members, want) {
				t.Errorf("cached group repeat: err %v, equal to solo runs: %v", err, err == nil && reflect.DeepEqual(again.(*sketch.MultiResult).Members, want))
			}
			hits2, misses2 := root.Cache().Stats()
			if hits2-hits1 != int64(2*len(sks)) || misses2 != misses1 {
				t.Errorf("repeats: %d hits, %d misses, want %d and 0", hits2-hits1, misses2-misses1, 2*len(sks))
			}
			if st := s.Stats(); st.Execs != execs || st.Admitted != admitted {
				t.Errorf("repeats executed %d more times, the cached group took %d slots", st.Execs-execs, st.Admitted-admitted)
			}
			drained(t, s)
		})
	}
}

// TestGroupPartialHit: a group with one member already cached does not
// run as a group at all — the member that missed runs as itself, is
// stored under its own key, and no batch is counted.
func TestGroupPartialHit(t *testing.T) {
	root, _, sks, want := publishFixture(t, false)
	s := New(root, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})
	if _, err := s.RunSketch(context.Background(), "d", sks[1], nil); err != nil {
		t.Fatal(err)
	}
	group, err := sketch.NewMultiSketch(sks[0], sks[1])
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := root.Cache().Stats()
	var last engine.Partial
	res, err := s.RunSketch(context.Background(), "d", group, func(p engine.Partial) { last = p })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.(*sketch.MultiResult).Members, want[:2]) {
		t.Error("group result differs from the solo runs")
	}
	if !reflect.DeepEqual(last.Result, res) {
		t.Error("group's partial stream does not end with its result")
	}
	if hits, misses := root.Cache().Stats(); hits-hits0 != 1 || misses-misses0 != 1 {
		t.Errorf("group with one cached member: %d hits, %d misses, want 1 and 1", hits-hits0, misses-misses0)
	}
	if st := s.Stats(); st.Execs != 2 || st.BatchesFormed != 0 {
		t.Errorf("stats = %d execs, %d batches, want 2 (one per sketch) and 0", st.Execs, st.BatchesFormed)
	}
	if cached, ok := root.Cached(context.Background(), "d", sks[0], nil); !ok || !reflect.DeepEqual(cached, want[0]) {
		t.Errorf("the member that ran is not in the cache under its own key (cached=%v)", ok)
	}
	drained(t, s)
}

// TestBatchMaskedMemberNotPublished: a member abandoned while the pass
// runs is masked out of the remaining partitions, so its slot is a partial
// sum — it must not reach the cache, while its siblings do.
func TestBatchMaskedMemberNotPublished(t *testing.T) {
	root, ds, sks, want := publishFixture(t, true)
	blk := newBlocker(root)
	s := New(blk, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})
	release := blk.hold(t, s)
	ctx0, cancel0 := context.WithCancel(context.Background())
	defer cancel0()
	got, errs, wg := runAll(s, ctx0, sks)
	closeWindow(t, s, "d", len(sks))
	release()
	<-ds.entered // the pass is inside the root, past its generation read
	cancel0()
	// Member 0 detached: its mask bit is set.
	waitFor(t, s, "the cancelled member to detach", func() bool { return len(s.flights) == len(sks)-1 })
	close(ds.gate)
	wg.Wait()
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("abandoned member err = %v, want context.Canceled", errs[0])
	}
	if _, ok := root.Cached(context.Background(), "d", sks[0], nil); ok {
		t.Error("masked member's partial fold was published to the cache")
	}
	for i := 1; i < len(sks); i++ {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("surviving member %d: err %v, result equal to solo: %v", i, errs[i], reflect.DeepEqual(got[i], want[i]))
		}
		if res, ok := root.Cached(context.Background(), "d", sks[i], nil); !ok || !reflect.DeepEqual(res, want[i]) {
			t.Errorf("surviving member %d (%s) not published (cached=%v)", i, sks[i].Name(), ok)
		}
	}
}

// TestBatchPublishIsGenerationGuarded: when the dataset's generation
// moves while a shared pass is running, its members computed against a
// live set the keys no longer name — nothing is published, exactly as a
// solo run skips its put.
func TestBatchPublishIsGenerationGuarded(t *testing.T) {
	root, ds, sks, want := publishFixture(t, true)
	s := New(root, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})
	group, err := sketch.NewMultiSketch(sks...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res sketch.Result
	go func() {
		defer close(done)
		res, err = s.RunSketch(context.Background(), "d", group, nil)
	}()
	<-ds.entered
	root.Advance("d") // an ingest seal lands mid-pass
	close(ds.gate)
	<-done
	if err != nil || !reflect.DeepEqual(res.(*sketch.MultiResult).Members, want) {
		t.Errorf("err %v, results equal to solo: %v", err, err == nil && reflect.DeepEqual(res.(*sketch.MultiResult).Members, want))
	}
	if n := root.Cache().Len(); n != 0 {
		t.Errorf("%d results published across a generation bump, want 0", n)
	}
	drained(t, s) // the flights were counted under the generation they started at
}

// TestBusyCountDrains walks every way a flight can leave the scheduler
// and checks that it took its share of the dataset's busy count with it.
// A leak would be silent — results stay right — and would bring the
// window wait back for every later query on that dataset.
func TestBusyCountDrains(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	run := &genRunner{}
	run.fn = func(ctx context.Context, _ string, sk sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		switch name := sk.Name(); {
		case strings.Contains(name, "fails"):
			return nil, boom
		case strings.Contains(name, "panics"):
			panic("kaboom")
		case strings.Contains(name, "held"):
			started <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if ms, ok := sk.(*sketch.MultiSketch); ok {
			return ms.Zero(), nil
		}
		return int64(0), nil
	}
	blk := newBlocker(run)
	s := New(blk, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})
	q := func(col string) sketch.Sketch { return &sketch.DistinctCountSketch{Col: col} }
	bg := context.Background()

	if _, err := s.RunSketch(bg, "d", q("finishes"), nil); err != nil {
		t.Fatal(err)
	}
	drained(t, s)
	if _, err := s.RunSketch(bg, "d", q("fails"), nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	drained(t, s)
	var pe *engine.PanicError
	if _, err := s.RunSketch(bg, "d", q("panics"), nil); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a recovered panic", err)
	}
	drained(t, s)

	// Abandoned while gathering, before its window closes.
	release := blk.hold(t, s)
	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 2)
	go func() { _, err := s.RunSketch(ctx, "d", q("leaves early"), nil); errc <- err }()
	waitFor(t, s, "the query to gather", func() bool { return len(s.batches["d"]) == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	s.formBatch("d", "d")
	release()
	drained(t, s)

	// Every member abandons a batch mid-pass.
	blk.gate = make(chan struct{})
	release = blk.hold(t, s)
	ctx, cancel = context.WithCancel(bg)
	for _, col := range []string{"held a", "held b"} {
		col := col
		go func() { _, err := s.RunSketch(ctx, "d", q(col), nil); errc <- err }()
	}
	closeWindow(t, s, "d", 2)
	release()
	<-started
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	waitFor(t, s, "the abandoned pass to stop", func() bool { return s.inflight.Load() == 0 })
	drained(t, s)

	// The generation moves under a flight: it leaves the count it joined.
	go func() { _, err := s.RunSketch(bg, "d", q("held across a seal"), nil); errc <- err }()
	<-started
	run.gen.Add(1)
	waitFor(t, s, "the flight to be counted", func() bool { return s.busy["d"] == 1 })
	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	drained(t, s)
	if st := s.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("gauges not drained: %+v", st)
	}
}
