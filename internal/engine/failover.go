package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// This file is the engine half of replica-aware fault tolerance (paper
// §5.7): a sketch fan-out over partition ranges, each served by a set of
// interchangeable replicas. The sketch algebra makes this transparent —
// summaries are mergeable and partials cumulative, so the root can
// substitute one replica's summary for another's with no coordination,
// as long as results are deduplicated by partition range at merge time.
// Package cluster supplies replicas backed by worker connections; the
// machinery lives here because it reuses the engine's throttle/emit
// aggregation contract and so engine-level tests can drive it with fake
// replicas.

// PartitionRange addresses the slice of a partitioned dataset that one
// replica group is responsible for: the partitions whose index ≡ Group
// (mod Of). A failed sketch attempt is retried at this granularity — the
// whole range moves to another replica, never a partial split, so the
// merge tree keeps its shape and merge-order-sensitive sketches stay
// bit-reproducible.
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
// it.
type ReplicaGroup struct {
	Range    PartitionRange
	Replicas []Replica
}

// FailoverEventKind discriminates failover telemetry events.
type FailoverEventKind int

const (
	// EventFailover: an attempt failed with a retryable error and the
	// range was re-dispatched to the named replica.
	EventFailover FailoverEventKind = iota + 1
	// EventGroupLost: every replica of the range failed; the query
	// fails with a clean error.
	EventGroupLost
)

// FailoverEvent is one telemetry event from a replicated sketch run.
type FailoverEvent struct {
	Kind    FailoverEventKind
	Range   PartitionRange
	Replica string // the replica the range was re-dispatched to (failover)
	Err     error  // the triggering failure
}

// FailoverOptions tunes SketchReplicated. The zero value retries
// nothing: the plain parallel fan-out, one attempt per range.
type FailoverOptions struct {
	// Retryable reports whether an attempt error is worth re-dispatching
	// to another replica (transport failures: yes; deterministic sketch
	// errors: no — every replica would compute the same failure). nil
	// means nothing is retryable.
	Retryable func(error) bool
	// OnEvent, when set, receives failover telemetry.
	OnEvent func(FailoverEvent)
}

// SketchReplicated is the engine's aggregation node (paper §5.3: "nodes
// periodically propagate partially merged results of the vizketch
// without waiting for all children to respond"). It fans sk out over
// the partition ranges in groups, each attempt served by one of the
// range's replicas, and folds the per-range streams — each cumulative
// for its range — by keeping the latest summary per range and
// re-merging in range order on every throttled update. Results are
// deduplicated by range — no matter how many attempts a range needed,
// exactly one summary per range enters the fold, so the result is
// bit-identical to the fault-free run.
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
	tr := obs.TraceFrom(ctx)
	event := func(kind FailoverEventKind, rng PartitionRange, replica string, err error) {
		if opts.OnEvent != nil {
			opts.OnEvent(FailoverEvent{Kind: kind, Range: rng, Replica: replica, Err: err})
		}
		if tr != nil {
			name := "replica.failover"
			if kind == EventGroupLost {
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

	// update records range g's summary after done of its partitions and
	// emits a throttled merged partial. An attempt that takes the range
	// over after a failover starts again at its first partition, so only
	// updates that do not move the range's progress backwards are kept —
	// the dedup that keeps the merged stream from moving backwards and
	// makes a duplicated partial harmless. A range's final goes through
	// here too: a range whose only update is its final must still show
	// in the stream before the slowest range finishes. The complete
	// merge is left to the completion emit below. Callers hold mu.
	update := func(g int, res sketch.Result, done int) {
		if settled[g] {
			return
		}
		if done >= dones[g] {
			latest[g] = res
			dones[g] = done
		}
		if onPartial != nil && th.allow() {
			if merged, sum, err := remerge(); err == nil && sum < total {
				onPartial(Partial{Result: merged, Done: sum, Total: total})
			}
		}
	}
	rangeCb := func(g int) PartialFunc {
		if onPartial == nil {
			return nil
		}
		return func(p Partial) {
			mu.Lock()
			defer mu.Unlock()
			update(g, p.Result, p.Done)
		}
	}

	// runGroup tries the range's replicas one at a time, healthy ones
	// first, until one answers. Each attempt runs on its own goroutine so
	// the dispatcher observes ctx.Done itself: an attempt that ignores
	// cancellation cannot hold the query past its deadline.
	runGroup := func(g int) (sketch.Result, error) {
		grp := groups[g]
		replicas := orderReplicas(grp.Replicas)
		if len(replicas) == 0 {
			return nil, fmt.Errorf("engine: %v: no replicas", grp.Range)
		}
		type outcome struct {
			res sketch.Result
			err error
		}
		cb := rangeCb(g)
		var lastErr error
		for i, r := range replicas {
			if i > 0 {
				event(EventFailover, grp.Range, r.Name(), lastErr)
			}
			results := make(chan outcome, 1)
			go func() {
				var out outcome
				// A panicking attempt is an outcome, not a crash: it fails
				// this query (panics are not Retryable) and leaves the
				// other ranges and the process intact.
				defer func() {
					if pe := CapturePanic(recover()); pe != nil {
						out.err = pe
					}
					results <- out
				}()
				out.res, out.err = r.Sketch(ctx, sk, cb)
			}()
			var out outcome
			select {
			case out = <-results:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if out.err == nil {
				return out.res, nil
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if opts.Retryable == nil || !opts.Retryable(out.err) {
				// Deterministic failure: every replica computes the same
				// bits, so it would fail the same way. Surface it now.
				return nil, out.err
			}
			lastErr = out.err
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
			update(g, res, groups[g].Range.Leaves)
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
