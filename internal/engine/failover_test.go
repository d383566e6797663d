package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/table"
)

// sumSketch is a trivial mergeable sketch for failover tests: results
// are ints, merge is addition.
type sumSketch struct{}

func (sumSketch) Name() string        { return "sum" }
func (sumSketch) Zero() sketch.Result { return 0 }
func (sumSketch) Summarize(t *table.Table) (sketch.Result, error) {
	return t.NumRows(), nil
}
func (sumSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	return a.(int) + b.(int), nil
}

// fakeReplica scripts one replica's behavior.
type fakeReplica struct {
	name    string
	healthy bool
	calls   atomic.Int32
	run     func(ctx context.Context, onPartial PartialFunc) (sketch.Result, error)
}

func (r *fakeReplica) Name() string  { return r.name }
func (r *fakeReplica) Healthy() bool { return r.healthy }
func (r *fakeReplica) Sketch(ctx context.Context, _ sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	r.calls.Add(1)
	return r.run(ctx, onPartial)
}

// ok returns a replica that immediately succeeds with value v.
func ok(name string, v int) *fakeReplica {
	return &fakeReplica{name: name, healthy: true, run: func(context.Context, PartialFunc) (sketch.Result, error) {
		return v, nil
	}}
}

var errConn = errors.New("fake connection lost")

// dead returns a replica that fails with a retryable connection error.
func dead(name string) *fakeReplica {
	return &fakeReplica{name: name, healthy: true, run: func(context.Context, PartialFunc) (sketch.Result, error) {
		return nil, errConn
	}}
}

func group(g, of, leaves int, rs ...Replica) ReplicaGroup {
	return ReplicaGroup{
		Range:    PartitionRange{Group: g, Of: of, Leaves: leaves},
		Replicas: rs,
	}
}

func retryConn(err error) bool { return errors.Is(err, errConn) }

func TestFailoverRetriesOnSurvivingReplica(t *testing.T) {
	var events []FailoverEvent
	groups := []ReplicaGroup{
		group(0, 2, 2, dead("w0"), ok("w2", 10)),
		group(1, 2, 2, ok("w1", 5)),
	}
	res, err := SketchReplicated(context.Background(), sumSketch{}, nil, groups,
		Config{AggregationWindow: -1},
		FailoverOptions{Retryable: retryConn, OnEvent: func(e FailoverEvent) { events = append(events, e) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 15 {
		t.Fatalf("result = %v, want 15", res)
	}
	found := false
	for _, e := range events {
		if e.Kind == EventFailover && e.Replica == "w2" && errors.Is(e.Err, errConn) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failover event recorded: %+v", events)
	}
}

func TestFailoverAllReplicasLostIsCleanError(t *testing.T) {
	groups := []ReplicaGroup{
		group(0, 2, 2, dead("w0"), dead("w2")),
		group(1, 2, 2, ok("w1", 5)),
	}
	_, err := SketchReplicated(context.Background(), sumSketch{}, nil, groups,
		Config{AggregationWindow: -1}, FailoverOptions{Retryable: retryConn})
	if err == nil {
		t.Fatal("total replica loss must error")
	}
	if !errors.Is(err, errConn) {
		t.Fatalf("error should wrap the last failure: %v", err)
	}
}

func TestFailoverNonRetryableFailsFast(t *testing.T) {
	semantic := errors.New("no such column")
	second := ok("w2", 10)
	groups := []ReplicaGroup{
		group(0, 1, 2, &fakeReplica{name: "w0", healthy: true,
			run: func(context.Context, PartialFunc) (sketch.Result, error) { return nil, semantic }},
			second),
	}
	_, err := SketchReplicated(context.Background(), sumSketch{}, nil, groups,
		Config{AggregationWindow: -1}, FailoverOptions{Retryable: retryConn})
	if !errors.Is(err, semantic) {
		t.Fatalf("err = %v, want the semantic error", err)
	}
	if second.calls.Load() != 0 {
		t.Error("deterministic error must not be retried on another replica")
	}
}

func TestFailoverUnhealthyReplicaTriedLast(t *testing.T) {
	primary := ok("up", 7)
	down := dead("down")
	down.healthy = false
	groups := []ReplicaGroup{group(0, 1, 1, down, primary)}
	res, err := SketchReplicated(context.Background(), sumSketch{}, nil, groups,
		Config{AggregationWindow: -1}, FailoverOptions{Retryable: retryConn})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 7 {
		t.Fatalf("result = %v", res)
	}
	if down.calls.Load() != 0 {
		t.Error("healthy replica available, but the unhealthy one was tried first")
	}
}

// TestFailoverDedupAcrossCompetingAttempts drives two attempts at one
// range through failover: the first streams two partitions' partials
// and fails with a retryable error, the second takes the range over
// from its first partition. The merged stream must stay monotone — the
// second attempt's Done=1 must not pull it back from the first's Done=2
// — and the result must count the range exactly once.
func TestFailoverDedupAcrossCompetingAttempts(t *testing.T) {
	first := &fakeReplica{name: "w0", healthy: true, run: func(_ context.Context, onPartial PartialFunc) (sketch.Result, error) {
		onPartial(Partial{Result: 3, Done: 1, Total: 3})
		onPartial(Partial{Result: 6, Done: 2, Total: 3})
		return nil, errConn
	}}
	second := &fakeReplica{name: "w1", healthy: true, run: func(_ context.Context, onPartial PartialFunc) (sketch.Result, error) {
		onPartial(Partial{Result: 3, Done: 1, Total: 3})
		onPartial(Partial{Result: 6, Done: 2, Total: 3})
		return 10, nil
	}}
	groups := []ReplicaGroup{group(0, 1, 3, first, second)}
	var merged []Partial
	res, err := SketchReplicated(context.Background(), sumSketch{}, func(p Partial) {
		merged = append(merged, p)
	}, groups, Config{AggregationWindow: 1}, FailoverOptions{Retryable: retryConn})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Done < merged[i-1].Done || merged[i].Result.(int) < merged[i-1].Result.(int) {
			t.Fatalf("merged stream moved backwards at %d: %+v", i, merged)
		}
	}
	if res.(int) != 10 {
		t.Fatalf("result = %v, want 10 (range counted once)", res)
	}
	if first.calls.Load() != 1 || second.calls.Load() != 1 {
		t.Errorf("attempts: first %d, second %d, want 1 each", first.calls.Load(), second.calls.Load())
	}
}

func TestFailoverContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	groups := []ReplicaGroup{
		group(0, 1, 1, &fakeReplica{name: "hang", healthy: true, run: func(ctx context.Context, _ PartialFunc) (sketch.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}}),
	}
	done := make(chan error, 1)
	go func() {
		_, err := SketchReplicated(ctx, sumSketch{}, nil, groups, Config{AggregationWindow: -1}, FailoverOptions{})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the replicated sketch")
	}
}

// TestFailoverDeadlineStopsRetries pins deadline propagation through
// the failover path: when the query deadline expires mid-retry-chain,
// SketchReplicated returns context.DeadlineExceeded promptly instead of
// marching through the remaining replicas. This is what makes the
// serving layer's -query-deadline meaningful on a replicated cluster —
// a deadline bounds the whole query, failover included.
func TestFailoverDeadlineStopsRetries(t *testing.T) {
	const perAttempt = 30 * time.Millisecond
	var calls atomic.Int32
	slowDead := func(name string) *fakeReplica {
		return &fakeReplica{name: name, healthy: true, run: func(ctx context.Context, _ PartialFunc) (sketch.Result, error) {
			calls.Add(1)
			select {
			case <-time.After(perAttempt):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return nil, errConn
		}}
	}
	rs := make([]Replica, 10)
	for i := range rs {
		rs[i] = slowDead(fmt.Sprintf("w%d", i))
	}
	groups := []ReplicaGroup{group(0, 1, 1, rs...)}
	ctx, cancel := context.WithTimeout(context.Background(), 2*perAttempt)
	defer cancel()
	start := time.Now()
	_, err := SketchReplicated(ctx, sumSketch{}, nil, groups,
		Config{AggregationWindow: -1}, FailoverOptions{Retryable: retryConn})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if full := time.Duration(len(rs)) * perAttempt; elapsed >= full {
		t.Fatalf("returned after %v — retried past the deadline (full chain ≈ %v)", elapsed, full)
	}
	if c := int(calls.Load()); c == len(rs) {
		t.Errorf("all %d replicas were tried despite the deadline", c)
	}
}

// TestFailoverDeadlineMidStuckAttempt: an attempt that ignores
// cancellation entirely must not pin the query past its deadline — the
// dispatcher observes ctx.Done itself and returns without waiting for
// the attempt goroutine.
func TestFailoverDeadlineMidStuckAttempt(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	stuck := &fakeReplica{name: "stuck", healthy: true, run: func(context.Context, PartialFunc) (sketch.Result, error) {
		<-release
		return nil, errConn
	}}
	groups := []ReplicaGroup{group(0, 1, 1, stuck)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := SketchReplicated(ctx, sumSketch{}, nil, groups,
			Config{AggregationWindow: -1}, FailoverOptions{Retryable: retryConn})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline did not unblock the replicated sketch")
	}
}

// concatSketch is merge-order sensitive: results are strings and Merge
// concatenates, so a fold's result spells the order it merged in.
type concatSketch struct{}

func (concatSketch) Name() string        { return "concat" }
func (concatSketch) Zero() sketch.Result { return "" }
func (concatSketch) Summarize(t *table.Table) (sketch.Result, error) {
	return t.ID(), nil
}
func (concatSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	return a.(string) + b.(string), nil
}

// TestFailoverMatchesParallelFoldOrder: the parallel fan-out folds the
// per-range summaries in range order, whatever order they arrive in —
// here exactly the reverse.
func TestFailoverMatchesParallelFoldOrder(t *testing.T) {
	const n = 4
	finished := make([]chan struct{}, n+1)
	for g := range finished {
		finished[g] = make(chan struct{})
	}
	close(finished[n])
	var groups []ReplicaGroup
	for g := 0; g < n; g++ {
		groups = append(groups, group(g, n, 1, &fakeReplica{name: fmt.Sprintf("w%d", g), healthy: true,
			run: func(context.Context, PartialFunc) (sketch.Result, error) {
				<-finished[g+1] // range g+1 answers first
				defer close(finished[g])
				return fmt.Sprint(g), nil
			}}))
	}
	res, err := SketchReplicated(context.Background(), concatSketch{}, nil, groups,
		Config{AggregationWindow: -1}, FailoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.(string) != "0123" {
		t.Fatalf("result = %q, want %q (range order)", res, "0123")
	}
}

// TestFinishedRangeJoinsPartialStream: a range whose replica answers
// with its final alone, no partials, shows in the root's partial stream
// while another range is still running.
func TestFinishedRangeJoinsPartialStream(t *testing.T) {
	release := make(chan struct{})
	slow := &fakeReplica{name: "slow", healthy: true, run: func(ctx context.Context, _ PartialFunc) (sketch.Result, error) {
		select {
		case <-release:
			return 5, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	groups := []ReplicaGroup{group(0, 2, 1, ok("fast", 7)), group(1, 2, 3, slow)}
	partials := make(chan Partial, 1) // keeps the first; later ones drop
	type outcome struct {
		res sketch.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := SketchReplicated(context.Background(), sumSketch{}, func(p Partial) {
			select {
			case partials <- p:
			default:
			}
		}, groups, Config{}, FailoverOptions{})
		done <- outcome{res, err}
	}()
	select {
	case p := <-partials:
		if p.Done != 1 || p.Total != 4 || p.Result.(int) != 7 {
			t.Errorf("first partial = %+v, want the fast range's 7 at done 1 of 4", p)
		}
	case <-time.After(10 * time.Second):
		t.Error("no partial before the slow range finished")
	}
	close(release)
	out := <-done
	if out.err != nil || out.res.(int) != 12 {
		t.Fatalf("result = %v, %v; want 12", out.res, out.err)
	}
}
