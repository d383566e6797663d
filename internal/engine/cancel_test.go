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

// rowHookSketch is a test sketch that visits member rows one at a time,
// counting them into visited and invoking hook per row. Over one
// partition the engine has no point between scan units to stop at, so
// the only thing that can stop its scan early is the mid-scan
// cancellation probe.
type rowHookSketch struct {
	visited *atomic.Int64
	hook    func(visited int64)
}

func (s *rowHookSketch) Name() string        { return "rowhook" }
func (s *rowHookSketch) Zero() sketch.Result { return int64(0) }
func (s *rowHookSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	return a.(int64) + b.(int64), nil
}

func (s *rowHookSketch) Summarize(t *table.Table) (sketch.Result, error) {
	var n int64
	t.Members().Iterate(func(int) bool {
		n++
		v := s.visited.Add(1)
		if s.hook != nil {
			s.hook(v)
		}
		return true
	})
	return n, nil
}

// TestLocalCancellationMidChunk pins the mid-scan seam: a partition
// scan (one task — no between-task cancellation points) stops within
// one probe polling interval of the context being cancelled, instead of
// burning through the rest of the partition.
func TestLocalCancellationMidChunk(t *testing.T) {
	const rows = 400000
	const cancelAt = 100000
	parts := genParts("mid", 1, rows, 11)
	ds := NewLocal("mid", parts, Config{Parallelism: 1, AggregationWindow: -1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	sk := &rowHookSketch{visited: &visited, hook: func(v int64) {
		if v == cancelAt {
			cancel()
		}
	}}
	_, err := ds.Sketch(ctx, sk, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One polling interval is 64Ki rows; allow two for slack. Without
	// the probe the scan would visit all 400000 rows.
	if v := visited.Load(); v >= cancelAt+2*(1<<16) {
		t.Errorf("scan visited %d rows after cancellation at row %d", v, cancelAt)
	}
}

// panicSketch panics while summarizing partition ID target (every
// partition when target is empty) — or, with inMerge set, summarizes
// fine and panics when two non-empty summaries merge.
type panicSketch struct {
	target  string
	inMerge bool
}

func (s *panicSketch) Name() string        { return "panic(" + s.target + ")" }
func (s *panicSketch) Zero() sketch.Result { return int64(0) }
func (s *panicSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	if s.inMerge && a.(int64) != 0 && b.(int64) != 0 {
		panic("injected panic in Merge")
	}
	return a.(int64) + b.(int64), nil
}

func (s *panicSketch) Summarize(t *table.Table) (sketch.Result, error) {
	if !s.inMerge && (s.target == "" || t.ID() == s.target) {
		panic(fmt.Sprintf("injected panic on %s", t.ID()))
	}
	return int64(1), nil
}

// TestLocalPanicIsolated pins panic isolation at the leaf pool: a
// panicking sketch fails its own query with *PanicError — it does not
// crash the test process — and the dataset remains usable afterwards.
// The panic may fire inside a partition fold or inside the merge that
// retires one, with partial emission contending for the same lock:
// neither may leave it held.
func TestLocalPanicIsolated(t *testing.T) {
	parts := genParts("pk", 8, 200, 12)
	for _, tc := range []struct {
		name   string
		sk     *panicSketch
		window time.Duration
	}{
		{"summarize", &panicSketch{target: "pk-p3"}, -1},
		{"summarize+partials", &panicSketch{target: "pk-p3"}, time.Nanosecond},
		{"merge+partials", &panicSketch{inMerge: true}, time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := NewLocal("pk", parts, Config{Parallelism: 4, AggregationWindow: tc.window})
			_, err := ds.Sketch(context.Background(), tc.sk, func(Partial) {})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Value == nil || len(pe.Stack) == 0 {
				t.Error("PanicError missing value or stack")
			}

			// The pool survives: the next query runs normally.
			res, err := ds.Sketch(context.Background(), histSketch(), nil)
			if err != nil || res == nil {
				t.Fatalf("query after panic: res=%v err=%v", res, err)
			}
		})
	}
}

// panicMap panics on one partition.
type panicMap struct{ target string }

func (m panicMap) Apply(t *table.Table, id string) (*table.Table, error) {
	if t.ID() == m.target {
		panic("injected panic on " + t.ID())
	}
	return t, nil
}

// TestMapPanicIsolated: a transform that panics on one partition fails
// its Map with *PanicError, and the dataset stays usable.
func TestMapPanicIsolated(t *testing.T) {
	ds := NewLocal("pm", genParts("pm", 4, 100, 15), Config{Parallelism: 2})
	_, err := ds.Map(panicMap{target: "pm-p2"}, "pm2")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if _, err := ds.Map(panicMap{}, "pm3"); err != nil {
		t.Fatalf("Map after panic: %v", err)
	}
}

// TestParallelPanicIsolated pins the same property one level up the
// tree: a panic below an aggregation node fails only the query.
func TestParallelPanicIsolated(t *testing.T) {
	a := NewLocal("pa", genParts("pa", 2, 100, 13), Config{AggregationWindow: -1})
	b := NewLocal("pb", genParts("pb", 2, 100, 14), Config{AggregationWindow: -1})
	tree := newFanOut(Config{AggregationWindow: -1}, localReplica{a}, localReplica{b})

	_, err := tree.Sketch(context.Background(), &panicSketch{target: "pb-p1"}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if _, err := tree.Sketch(context.Background(), histSketch(), nil); err != nil {
		t.Fatalf("query after panic: %v", err)
	}
}
