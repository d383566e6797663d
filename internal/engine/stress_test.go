package engine

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

var errReplayMismatch = errors.New("replayed result differs")

// TestConcurrentQueriesAndDrops hammers a root with concurrent sketch
// executions while another goroutine keeps evicting the dataset: every
// query must succeed (through replay) and return the identical result.
func TestConcurrentQueriesAndDrops(t *testing.T) {
	l := &testLoader{}
	root := NewRoot(l.load)
	if _, err := root.Load("base", "gen"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Filter("base", "f", "x < 80"); err != nil {
		t.Fatal(err)
	}
	want, err := root.RunSketch(context.Background(), "f", histSketch(), nil)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				root.Drop("f")
				root.Drop("base")
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				// A non-cacheable sketch forces dataset access on every
				// run (cached summaries would mask the evictions).
				sk := &sketch.QuantileSketch{Order: table.Asc("x"), SampleSize: 32, Seed: 1}
				if _, err := root.RunSketch(context.Background(), "f", sk, nil); err != nil {
					errs[i] = err
					return
				}
				hist, err := root.RunSketch(context.Background(), "f", histSketch(), nil)
				if err != nil {
					errs[i] = err
					return
				}
				if !reflect.DeepEqual(hist, want) {
					errs[i] = errReplayMismatch
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query failed: %v", err)
		}
	}
	if root.Replays() == 0 {
		t.Error("expected replays under concurrent eviction")
	}
}

// TestCancelParallelTree cancels a query running over an aggregation
// node and verifies the cancellation surfaces.
func TestCancelParallelTree(t *testing.T) {
	parts := genParts("cp", 32, 50000, seedtest.Seed(t))
	l1 := NewLocal("l1", parts[:16], Config{Parallelism: 1, AggregationWindow: time.Nanosecond})
	l2 := NewLocal("l2", parts[16:], Config{Parallelism: 1, AggregationWindow: time.Nanosecond})
	tree := newFanOut(Config{AggregationWindow: time.Nanosecond}, localReplica{l1}, localReplica{l2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel from inside the first partial: a goroutine woken by it can
	// lose the race against the rest of a 1.6M-row scan.
	_, err := tree.Sketch(ctx, histSketch(), func(Partial) { cancel() })
	if err == nil {
		t.Fatal("cancelled tree returned no error")
	}
}

// TestDeterministicReplayOfSampledSketch pins the §5.8 requirement:
// a randomized vizketch with a recorded seed reproduces bit-identical
// results after the dataset is rebuilt by replay.
func TestDeterministicReplayOfSampledSketch(t *testing.T) {
	l := &testLoader{}
	root := NewRoot(l.load)
	if _, err := root.Load("base", "gen"); err != nil {
		t.Fatal(err)
	}
	sk := &sketch.SampledHistogramSketch{
		Col:     "x",
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 16),
		Rate:    0.2,
		Seed:    12345, // logged seed
	}
	want, err := root.RunSketch(context.Background(), "base", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	root.DropAll()
	got, err := root.RunSketch(context.Background(), "base", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sampled sketch not reproducible after replay — fault tolerance broken")
	}
}

// TestThrottleConcurrency checks the throttle under concurrent callers.
func TestThrottleConcurrency(t *testing.T) {
	th := newThrottle(time.Hour)
	var passed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if th.allow() {
				mu.Lock()
				passed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if passed != 1 {
		t.Errorf("throttle let %d through one window", passed)
	}
}
