package serve

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
)

// genRunner is a fakeRunner that also reports dataset generations, so
// the scheduler qualifies its dedup and batch keys with them.
type genRunner struct {
	fakeRunner
	gen atomic.Uint64
}

func (g *genRunner) DatasetGeneration(id string) uint64 { return g.gen.Load() }

// TestGenerationSplitsDedup pins the staleness contract: a query that
// arrives after the dataset's generation advanced must not join a
// flight started against the previous live set — even though dataset
// and sketch are identical.
func TestGenerationSplitsDedup(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	run := &genRunner{}
	run.fn = func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		started <- struct{}{}
		<-block
		return int64(run.gen.Load()), nil
	}
	s := New(run, Config{MaxInFlight: 4, Deadline: -1})
	if s.gens == nil {
		t.Fatal("scheduler did not detect the runner's GenerationProvider")
	}

	var wg sync.WaitGroup
	results := make(chan sketch.Result, 3)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.RunSketch(context.Background(), "d", cacheableSketch(), nil)
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	launch()
	<-started // first flight executing at generation 0

	// Same query again at generation 0: must join, not re-execute.
	launch()
	for i := 0; i < 1000 && s.Stats().DedupJoins == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().DedupJoins; got != 1 {
		t.Fatalf("dedup joins = %d, want 1", got)
	}

	// Advance the generation (an ingest seal) and query again: the new
	// query must start its own execution against the new live set.
	run.gen.Add(1)
	launch()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("post-advance query never started its own execution")
	}
	close(block)
	wg.Wait()
	if got := run.calls.Load(); got != 2 {
		t.Fatalf("underlying executions = %d, want 2 (one per generation)", got)
	}
}

// TestGenerationSplitsBatchWindow pins the same contract for scan
// batching: queries on different generations of one dataset must not
// coalesce into one leaf pass — and a scan in flight on the old
// generation does not make the new one busy.
func TestGenerationSplitsBatchWindow(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := make(chan struct{})
	run := &genRunner{}
	run.fn = func(ctx context.Context, _ string, sk sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		if strings.Contains(sk.Name(), "held") {
			started <- struct{}{}
			<-gate
		}
		return int64(0), nil
	}
	s := New(run, Config{MaxInFlight: 4, Deadline: -1, BatchWindow: time.Hour})

	var wg sync.WaitGroup
	runOne := func(sk sketch.Sketch) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.RunSketch(context.Background(), "d", sk, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	// A scan in flight at generation 0, and a query gathering behind it...
	runOne(&sketch.DistinctCountSketch{Col: "held 0"})
	<-started
	runOne(cacheableSketch())
	old := engine.QualifyDataset("d", 0)
	waitFor(t, s, "the generation-0 window", func() bool { return len(s.batches[old]) == 1 })
	// ...then the generation advances. The first arrival on the new
	// generation finds it idle and starts at once; the one behind it
	// opens a window of its own, keyed by the new generation.
	run.gen.Add(1)
	runOne(&sketch.DistinctCountSketch{Col: "held 1"})
	<-started
	runOne(&sketch.DistinctCountSketch{Col: "x"})
	now := engine.QualifyDataset("d", 1)
	waitFor(t, s, "the generation-1 window", func() bool { return len(s.batches[now]) == 1 })
	s.mu.Lock()
	windows, busyOld, busyNow := len(s.batches), s.busy[old], s.busy[now]
	s.mu.Unlock()
	if windows != 2 || busyOld != 2 || busyNow != 2 {
		t.Fatalf("%d open windows, busy %d/%d; want 2 windows with 2 flights on each generation", windows, busyOld, busyNow)
	}
	s.formBatch(old, "d")
	s.formBatch(now, "d")
	close(gate)
	wg.Wait()
	if got := run.calls.Load(); got != 4 {
		t.Errorf("underlying executions = %d, want 4 (no pass shared across generations)", got)
	}
	drained(t, s)
}
