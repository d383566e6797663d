package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// This file is the engine half of replica-aware fault tolerance: a
// sketch fan-out over partition ranges, each served by a set of
// interchangeable replicas. The sketch algebra makes this transparent —
// summaries are mergeable and partials cumulative, so the root can
// substitute one replica's summary for another's (or keep the first of
// two speculative answers) with no coordination, as long as results are
// deduplicated by partition range at merge time. Package cluster
// supplies replicas backed by worker connections; the machinery lives
// here because it reuses the engine's throttle/emit aggregation
// contract and so engine-level tests can drive it with fake replicas.

// PartitionRange addresses the slice of a partitioned dataset that one
// replica group is responsible for: the partitions whose index ≡ Group
// (mod Of). A failed or straggling sketch attempt is retried at this
// granularity — the whole range moves to another replica, never a
// partial split, so the merge tree keeps its shape and merge-order-
// sensitive sketches stay bit-reproducible.
type PartitionRange struct {
	Group  int // residue class selecting this range's partitions
	Of     int // number of ranges the dataset is split into
	Leaves int // partitions in this range
}

func (r PartitionRange) String() string {
	return fmt.Sprintf("partitions %d mod %d (%d leaves)", r.Group, r.Of, r.Leaves)
}

// Replica is one interchangeable executor for a partition range.
// Replicas of the same range must compute bit-identical summaries —
// in the cluster they regenerate the same partitions (with the same
// partition IDs, hence the same sampling seeds) from the same pure
// source spec.
type Replica interface {
	// Name identifies the replica in events and errors (e.g. its address).
	Name() string
	// Healthy reports whether the replica is believed usable; unhealthy
	// replicas are tried last.
	Healthy() bool
	// Sketch runs sk over the replica's copy of the range.
	Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error)
}

// ReplicaGroup is one partition range plus the replicas that can serve
// it. Replicas is a function so membership may change between queries
// (workers joining, leaving, reconnecting) without rebuilding datasets.
type ReplicaGroup struct {
	Range    PartitionRange
	Replicas func() []Replica
}

// FailoverEventKind discriminates failover telemetry events.
type FailoverEventKind int

const (
	// EventFailover: an attempt failed with a retryable error and the
	// range was re-dispatched to the named replica.
	EventFailover FailoverEventKind = iota + 1
	// EventSpeculate: a straggling range was speculatively re-executed
	// on the named replica while the original attempt kept running.
	EventSpeculate
	// EventSpecWin: a speculative attempt delivered the range's result
	// first.
	EventSpecWin
	// EventGroupLost: every replica of the range failed; the query
	// fails with a clean error.
	EventGroupLost
)

// FailoverEvent is one telemetry event from a replicated sketch run.
type FailoverEvent struct {
	Kind    FailoverEventKind
	Range   PartitionRange
	Replica string // the replica launched (failover/speculate) or won (spec win)
	Err     error  // the triggering failure, when there is one
}

// FailoverOptions tunes SketchReplicated. The zero value retries
// nothing and never speculates: the plain parallel fan-out, one attempt
// per range.
type FailoverOptions struct {
	// Retryable reports whether an attempt error is worth re-dispatching
	// to another replica (transport failures: yes; deterministic sketch
	// errors: no — every replica would compute the same failure). nil
	// means nothing is retryable.
	Retryable func(error) bool
	// SpecFactor enables speculative re-execution: once at least half
	// the groups have completed, a group still running after
	// SpecFactor × (median completed-group latency) is re-dispatched to
	// its next untried replica. 0 disables speculation.
	SpecFactor float64
	// SpecMinDelay floors the straggler threshold, so tiny queries do
	// not speculate on scheduler noise. For a single-group dataset
	// (which has no peer latencies to compare against) it is the
	// absolute threshold.
	SpecMinDelay time.Duration
	// OnEvent, when set, receives failover telemetry.
	OnEvent func(FailoverEvent)
}

// SketchReplicated is the engine's aggregation node (paper §5.3: "nodes
// periodically propagate partially merged results of the vizketch
// without waiting for all children to respond"). It fans sk out over
// the partition ranges in groups, each attempt served by one of the
// range's replicas, and folds the per-range streams — each cumulative
// for its range — by keeping the latest summary per range and
// re-merging in range order on every throttled update. Results are deduplicated by range — no matter how
// many attempts a range needed (failover, speculation, duplicated
// partials), exactly one summary per range enters the fold, so the
// result is bit-identical to the fault-free run.
func SketchReplicated(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc,
	groups []ReplicaGroup, cfg Config, opts FailoverOptions) (sketch.Result, error) {
	n := len(groups)
	var (
		mu      sync.Mutex
		latest  = make([]sketch.Result, n)
		dones   = make([]int, n)
		settled = make([]bool, n)
		wg      sync.WaitGroup
		errs    = make([]error, n)
	)
	total := 0
	for _, g := range groups {
		total += g.Range.Leaves
	}
	th := newThrottle(cfg.window())
	tracker := newLatencyTracker()
	tr := obs.TraceFrom(ctx)
	event := func(kind FailoverEventKind, rng PartitionRange, replica string, err error) {
		if opts.OnEvent != nil {
			opts.OnEvent(FailoverEvent{Kind: kind, Range: rng, Replica: replica, Err: err})
		}
		if tr != nil {
			name := "replica.failover"
			switch kind {
			case EventSpeculate:
				name = "replica.speculate"
			case EventSpecWin:
				name = "replica.spec_win"
			case EventGroupLost:
				name = "replica.group_lost"
			}
			tr.Annotate(name, rng.String()+" "+replica)
		}
	}

	// remerge folds the latest per-range summaries in range order, so
	// the result does not depend on which range finished first. Callers
	// hold mu.
	remerge := func() (sketch.Result, int, error) {
		acc := sk.Zero()
		done := 0
		for g := range groups {
			if latest[g] == nil {
				continue
			}
			m, err := sk.Merge(acc, latest[g])
			if err != nil {
				return nil, 0, err
			}
			acc = m
			done += dones[g]
		}
		return acc, done, nil
	}

	// attemptCb builds the partial callback for one attempt on range g.
	// Competing attempts (failover racing a cancelled loser, speculation)
	// may interleave, so only updates that advance the range's progress
	// are kept — the dedup that makes re-execution invisible.
	attemptCb := func(g int) PartialFunc {
		if onPartial == nil {
			return nil
		}
		return func(p Partial) {
			mu.Lock()
			defer mu.Unlock()
			if settled[g] {
				return
			}
			if p.Done >= dones[g] {
				latest[g] = p.Result
				dones[g] = p.Done
			}
			if th.allow() {
				if merged, done, err := remerge(); err == nil {
					onPartial(Partial{Result: merged, Done: done, Total: total})
				}
			}
		}
	}

	runGroup := func(g int) (sketch.Result, error) {
		grp := groups[g]
		replicas := orderReplicas(grp.Replicas())
		if len(replicas) == 0 {
			return nil, fmt.Errorf("engine: %v: no replicas", grp.Range)
		}
		// Losing attempts are cancelled as soon as the range has a result.
		gctx, gcancel := context.WithCancel(ctx)
		defer gcancel()
		type outcome struct {
			res  sketch.Result
			err  error
			name string
			spec bool
		}
		results := make(chan outcome, len(replicas))
		next, inflight := 0, 0
		launch := func(spec bool) string {
			r := replicas[next]
			next++
			inflight++
			cb := attemptCb(g)
			go func() {
				var (
					res sketch.Result
					err error
				)
				// A panicking attempt is an outcome, not a crash: it fails
				// this query (panics are not Retryable) and leaves the
				// other ranges and the process intact.
				func() {
					defer func() {
						if pe := CapturePanic(recover()); pe != nil {
							err = pe
						}
					}()
					res, err = r.Sketch(gctx, sk, cb)
				}()
				results <- outcome{res: res, err: err, name: r.Name(), spec: spec}
			}()
			return r.Name()
		}
		launch(false)
		start := time.Now()
		var lastErr error
		for inflight > 0 {
			var (
				specTimer *time.Timer
				specC     <-chan time.Time
				wake      <-chan struct{}
			)
			if opts.SpecFactor > 0 && next < len(replicas) {
				if d, ok := tracker.threshold(opts, n); ok {
					wait := d - time.Since(start)
					if wait <= 0 {
						event(EventSpeculate, grp.Range, launch(true), nil)
						continue
					}
					specTimer = time.NewTimer(wait)
					specC = specTimer.C
				} else {
					// No threshold yet; re-evaluate when a peer completes.
					wake = tracker.changed()
				}
			}
			var (
				out      outcome
				gotOut   bool
				specFire bool
				cancel   bool
			)
			select {
			case out = <-results:
				gotOut = true
			case <-specC:
				specFire = true
			case <-wake:
			case <-ctx.Done():
				cancel = true
			}
			if specTimer != nil {
				specTimer.Stop()
			}
			switch {
			case cancel:
				return nil, ctx.Err()
			case specFire:
				event(EventSpeculate, grp.Range, launch(true), nil)
				continue
			case !gotOut:
				continue // a peer completed; recompute the threshold
			}
			inflight--
			if out.err == nil {
				tracker.record(time.Since(start))
				if out.spec {
					event(EventSpecWin, grp.Range, out.name, nil)
				}
				return out.res, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = out.err
			if opts.Retryable == nil || !opts.Retryable(out.err) {
				// Deterministic failure: every replica computes the same
				// bits, so it would fail the same way. Surface it now.
				return nil, out.err
			}
			if next < len(replicas) {
				event(EventFailover, grp.Range, launch(false), out.err)
			}
			// Replicas exhausted: drain whatever is still in flight — a
			// speculative attempt may yet succeed.
		}
		event(EventGroupLost, grp.Range, "", lastErr)
		return nil, fmt.Errorf("engine: %v: all %d replicas failed: %w", grp.Range, len(replicas), lastErr)
	}

	for g := range groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := runGroup(g)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[g] = err
				return
			}
			latest[g] = res
			dones[g] = groups[g].Range.Leaves
			settled[g] = true
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	final, done, err := remerge()
	if err != nil {
		return nil, err
	}
	emit(onPartial, Partial{Result: final, Done: done, Total: total})
	return final, nil
}

// orderReplicas puts healthy replicas first, preserving order within
// each class: the primary for a range is its first healthy replica,
// which is stable across queries, so the fault-free assignment — and
// with it the run's determinism — never depends on timing.
func orderReplicas(rs []Replica) []Replica {
	out := make([]Replica, 0, len(rs))
	for _, r := range rs {
		if r.Healthy() {
			out = append(out, r)
		}
	}
	for _, r := range rs {
		if !r.Healthy() {
			out = append(out, r)
		}
	}
	return out
}

// latencyTracker collects completed-range latencies for the straggler
// threshold and wakes waiting groups when a new sample arrives.
type latencyTracker struct {
	mu   sync.Mutex
	durs []time.Duration
	ch   chan struct{}
}

func newLatencyTracker() *latencyTracker {
	return &latencyTracker{ch: make(chan struct{})}
}

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs = append(t.durs, d)
	close(t.ch)
	t.ch = make(chan struct{})
}

// changed returns a channel closed at the next record.
func (t *latencyTracker) changed() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ch
}

// threshold returns the straggler threshold once enough peers (half the
// groups) have completed: SpecFactor × median completed latency,
// floored by SpecMinDelay. A single-group dataset has no peers, so
// SpecMinDelay alone is its threshold.
func (t *latencyTracker) threshold(opts FailoverOptions, nGroups int) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	need := nGroups / 2
	if need < 1 {
		need = 1
	}
	if len(t.durs) < need {
		if nGroups == 1 && opts.SpecMinDelay > 0 {
			return opts.SpecMinDelay, true
		}
		return 0, false
	}
	durs := append([]time.Duration(nil), t.durs...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	d := time.Duration(float64(durs[len(durs)/2]) * opts.SpecFactor)
	if d < opts.SpecMinDelay {
		d = opts.SpecMinDelay
	}
	return d, true
}
