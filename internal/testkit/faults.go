package testkit

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

// RunFaults drives the distributed topology through the scripted fault
// battery for one seed. The contract per schedule:
//
//   - non-destructive faults (frame delays, mid-frame stalls,
//     duplicated partials, on either side of the wire) must yield the
//     bit-identical fault-free result — the protocol absorbs them;
//   - destructive faults (mid-stream connection cuts, worker crash
//     mid-sketch) must end in either a result that passes the sketch's
//     oracle or a surfaced error, within runTimeout. No hangs, no
//     silently wrong answers.
func RunFaults(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x13198a2e03707344))
	// Twelve small partitions, six per group: each worker's scan folds
	// several and streams partials between them, so faults land
	// mid-stream.
	rows := 150 + int(rng.Uint64()%300)
	parts := 12
	prefix := fmt.Sprintf("tkf%d", seed)
	tables, info := table.GenPartitions(prefix, seed, rows, parts)
	cfg := engine.Config{Parallelism: 2, AggregationWindow: time.Millisecond}
	src := genSource(prefix, seed, rows, parts, 2)

	// The fault-free expectation per probe sketch, computed on the same
	// scan geometry.
	local := engine.NewLocal(datasetID, tables, cfg)
	probes := []sketch.Sketch{
		&sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 10)},
		&sketch.HistogramSketch{Col: "gd", Buckets: sketch.NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 7), Rate: 0.4, Seed: seed ^ 9},
		&sketch.MisraGriesSketch{Col: "gs", K: 6},
	}
	want := make([]sketch.Result, len(probes))
	ctx := context.Background()
	ctx = tracedContext(ctx)
	for i, sk := range probes {
		r, err := local.Sketch(ctx, sk, nil)
		if err != nil {
			return fmt.Errorf("fault seed %d: expectation for %s: %w", seed, sk.Name(), err)
		}
		want[i] = r
	}

	type schedule struct {
		name string
		run  func() error
	}
	schedules := []schedule{
		{"client-side delay+stall+dup", func() error {
			return nonDestructive(seed, cfg, src, tables, probes, want,
				cluster.FaultTransport{Script: cluster.FaultScript{
					Seed:      seed,
					DelayProb: 0.25, MaxDelay: 2 * time.Millisecond,
					StallProb: 0.25, Stall: 2 * time.Millisecond,
				}},
				func(w *cluster.Worker) { w.SetDuplicatePartials(0.5, seed) })
		}},
		{"server-side delay+stall", func() error {
			return nonDestructive(seed, cfg, src, tables, probes, want, nil,
				func(w *cluster.Worker) {
					w.SetConnWrapper(func(c net.Conn) net.Conn {
						return cluster.NewFaultConn(c, cluster.FaultScript{
							Seed:      seed ^ 0xff,
							DelayProb: 0.3, MaxDelay: time.Millisecond,
							StallProb: 0.3, Stall: time.Millisecond,
						})
					})
				})
		}},
		// Byte-level frame duplication on both sides of the wire. This
		// schedule was impossible under the seed's stateful gob stream
		// (replayed bytes corrupted the decoder); the stateless frame
		// codec must absorb it bit-invisibly: replayed responses are
		// deduplicated by the partial sequence chain, replayed requests
		// by the worker's in-flight request table.
		{"byte-level frame duplication", func() error {
			return nonDestructive(seed, cfg, src, tables, probes, want,
				cluster.FaultTransport{Script: cluster.FaultScript{
					Seed:         seed ^ 0xd1,
					DupFrameProb: 0.5,
				}},
				func(w *cluster.Worker) {
					w.SetConnWrapper(func(c net.Conn) net.Conn {
						return cluster.NewFaultConn(c, cluster.FaultScript{
							Seed:         seed ^ 0xd2,
							DupFrameProb: 0.5,
						})
					})
				})
		}},
		// Byte-level truncation: a random prefix of one response frame,
		// with the stream continuing after it. Destructive — the stream
		// desynchronizes — so the contract is a clean surfaced error or
		// a correct result, never a panic, hang, or wrong answer.
		// Two trials, not three: a desynchronized stream resolves only
		// at the query deadline plus the cancel drain, and the whole
		// schedule must fit the hang-detector budget.
		// Truncation lands on frame ≥ 2 so the load ack (frame 1 per
		// connection) survives: a truncated frame leaves the reader
		// waiting for bytes that never come, and the load path's own
		// deadline is minutes — the probe query's deadline, not the
		// schedule's hang detector, is what must bound the stall.
		{"byte-level frame truncation", func() error {
			var firstErr error
			for trial := 0; trial < 2; trial++ {
				after := 2 + int(rng.Uint64()%7)
				if err := destructiveTruncate(seed, cfg, src, tables, probes[0], want[0], after); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("truncate frame %d: %w", after, err)
				}
			}
			return firstErr
		}},
		{"connection cut", func() error {
			var firstErr error
			for trial := 0; trial < 3; trial++ {
				cut := 1 + int(rng.Uint64()%10)
				if err := destructiveCut(seed, cfg, src, tables, probes[0], want[0], cut); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("cut after %d frames: %w", cut, err)
				}
			}
			return firstErr
		}},
		{"worker crash mid-sketch", func() error {
			return workerCrash(seed, cfg, src, tables, probes[0], want[0], int(rng.Uint64()%2))
		}},
	}
	for _, s := range schedules {
		if err := withTimeout(s.name, s.run); err != nil {
			return fmt.Errorf("fault seed %d: %s: %w", seed, s.name, err)
		}
	}
	return nil
}

// withTimeout fails a schedule that produces no outcome in time — the
// hang detector. The goroutine is abandoned on timeout; the harness is
// already failing at that point.
func withTimeout(name string, f func() error) error {
	return withTimeoutFor(name, runTimeout, f)
}

// withTimeoutFor is withTimeout with an explicit budget, for schedules
// that deliberately run the whole sketch battery through repeated
// faults and revivals.
func withTimeoutFor(name string, budget time.Duration, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		return fmt.Errorf("no outcome within %v (hang)", budget)
	}
}

// nonDestructive runs every probe through a faulted cluster and demands
// bit-identical fault-free results plus a sane partial stream. prep
// runs before each worker starts accepting, so accept-time hooks
// (SetConnWrapper) apply to the root's connection.
func nonDestructive(seed uint64, cfg engine.Config, src string, tables []*table.Table,
	probes []sketch.Sketch, want []sketch.Result, tr cluster.Transport, prep func(*cluster.Worker)) error {
	h, err := startCluster(2, cfg, tr, prep)
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	total := len(tables)
	for i, sk := range probes {
		log := &partialLog{}
		got, err := h.root.RunSketch(ctx, datasetID, sk, log.add)
		if err != nil {
			return fmt.Errorf("%s: %w", sk.Name(), err)
		}
		if err := checkPeer(sk, tables, want[i], got); err != nil {
			return fmt.Errorf("%s: faulted result diverged: %w", sk.Name(), err)
		}
		if err := log.verify(total, got, false); err != nil {
			return fmt.Errorf("%s: %w", sk.Name(), err)
		}
	}
	return nil
}

// destructiveCut runs one probe through a connection that dies after a
// scripted number of frames: a correct result or a surfaced error are
// both acceptable outcomes; a wrong result is not.
func destructiveCut(seed uint64, cfg engine.Config, src string, tables []*table.Table,
	probe sketch.Sketch, want sketch.Result, cutAfter int) error {
	h, err := startCluster(2, cfg, cluster.FaultTransport{Script: cluster.FaultScript{
		Seed:           seed,
		CutAfterFrames: cutAfter,
	}}, nil)
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return nil // the load itself died on the cut: surfaced, done
	}
	got, err := h.root.RunSketch(ctx, datasetID, probe, func(engine.Partial) {})
	if err != nil {
		return nil // surfaced error
	}
	if err := checkPeer(probe, tables, want, got); err != nil {
		return fmt.Errorf("survived the cut with a wrong result: %w", err)
	}
	return nil
}

// destructiveTruncate runs one probe over a connection that delivers a
// random strict prefix of one scripted frame and then keeps streaming:
// everything after the truncation desynchronizes, so the decoder must
// surface a clean error (or the result may have raced to completion and
// must then be correct). The context deadline is deliberately short of
// the schedule timeout: a desynchronized stream that parses a garbage
// length can legitimately stall until cancellation, and that
// cancellation path must itself resolve, not hang.
func destructiveTruncate(seed uint64, cfg engine.Config, src string, tables []*table.Table,
	probe sketch.Sketch, want sketch.Result, after int) error {
	h, err := startCluster(2, cfg, cluster.FaultTransport{Script: cluster.FaultScript{
		Seed:                seed,
		TruncateAfterFrames: after,
	}}, nil)
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout/8)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return nil // the load itself died on the truncation: surfaced, done
	}
	got, err := h.root.RunSketch(ctx, datasetID, probe, func(engine.Partial) {})
	if err != nil {
		return nil // surfaced error
	}
	if err := checkPeer(probe, tables, want, got); err != nil {
		return fmt.Errorf("survived truncation with a wrong result: %w", err)
	}
	return nil
}

// workerCrash crashes one worker from inside the partial stream of a
// running sketch — the canonical §5.8 failure — and demands a surfaced
// error or a correct result, both for the interrupted query and for a
// follow-up query on the now-dead connection.
func workerCrash(seed uint64, cfg engine.Config, src string, tables []*table.Table,
	probe sketch.Sketch, want sketch.Result, victim int) error {
	h, err := startCluster(2, cfg, nil, nil)
	if err != nil {
		return err
	}
	defer h.close()
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	ctx = tracedContext(ctx)
	if _, err := h.root.Load(datasetID, src); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	var once sync.Once
	got, err := h.root.RunSketch(ctx, datasetID, probe, func(p engine.Partial) {
		once.Do(func() { h.workers[victim].Crash() })
	})
	if err == nil {
		if cerr := checkPeer(probe, tables, want, got); cerr != nil {
			return fmt.Errorf("crash raced a completion but the result is wrong: %w", cerr)
		}
	}
	// The follow-up must also resolve promptly: the dead connection is a
	// surfaced error, not a hang. (This root has no redial, so recovery
	// is the operator's move; silence is not.) If it does succeed — the
	// victim's connection can survive when the crash landed after the
	// final frame — the result must be correct, not computed from
	// half-emptied worker state. Drop any cached summary first so the
	// rerun actually crosses the wire instead of the result cache.
	h.root.Cache().InvalidateDataset(datasetID)
	if got2, err2 := h.root.RunSketch(ctx, datasetID, probe, nil); err2 == nil {
		if cerr := checkPeer(probe, tables, want, got2); cerr != nil {
			return fmt.Errorf("post-crash rerun returned a wrong result: %w", cerr)
		}
	}
	return nil
}
