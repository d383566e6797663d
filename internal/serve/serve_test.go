package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

// fakeRunner is a scriptable Runner: fn decides each call's behavior;
// calls counts underlying executions (the dedup exactly-once oracle).
type fakeRunner struct {
	calls atomic.Int64
	fn    func(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error)
}

func (f *fakeRunner) RunSketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	f.calls.Add(1)
	return f.fn(ctx, datasetID, sk, onPartial)
}

// cacheableSketch returns a sketch with a CacheKey (dedup-eligible).
func cacheableSketch() sketch.Sketch {
	return &sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 100, 4)}
}

// uncacheableSketch returns a sketch without a CacheKey.
func uncacheableSketch(k int) sketch.Sketch {
	return &sketch.NextKSketch{Order: table.RecordOrder{{Column: "x"}}, K: k}
}

// TestAdmissionShedsPastQueue pins the admission contract with one slot
// and one queue position: of three concurrent queries, one runs, one
// waits, and one is shed immediately with ErrShed (HTTP 429).
func TestAdmissionShedsPastQueue(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	run := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		started <- struct{}{}
		<-block
		return int64(1), nil
	}}
	s := New(run, Config{MaxInFlight: 1, QueueDepth: 1, Deadline: -1})

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.RunSketch(context.Background(), "d", uncacheableSketch(1), nil)
			errs <- err
		}()
	}
	launch()
	<-started // first query holds the slot
	launch()
	// Wait until the second occupies the queue position.
	for i := 0; i < 1000 && s.Stats().Queued == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().Queued; got != 1 {
		t.Fatalf("queued gauge = %d, want 1", got)
	}
	launch() // third: slot and queue full → shed
	var shedErr error
	select {
	case shedErr = <-errs:
	case <-time.After(5 * time.Second):
		t.Fatal("shed query did not return promptly")
	}
	if !errors.Is(shedErr, ErrShed) {
		t.Fatalf("third query err = %v, want ErrShed", shedErr)
	}
	if got := HTTPStatus(shedErr); got != http.StatusTooManyRequests {
		t.Errorf("HTTPStatus(ErrShed) = %d, want 429", got)
	}
	close(block)
	wg.Wait()
	st := s.Stats()
	if st.Shed != 1 || st.Admitted != 2 {
		t.Errorf("stats = %+v, want Shed=1 Admitted=2", st)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("gauges not drained: %+v", st)
	}
}

// TestQueueTimeout pins the 503 half of the deadline contract: a query
// whose deadline expires while still queued fails with ErrQueueTimeout
// (still a context.DeadlineExceeded), not a 504.
func TestQueueTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{}, 1)
	run := &fakeRunner{fn: func(context.Context, string, sketch.Sketch, engine.PartialFunc) (sketch.Result, error) {
		started <- struct{}{}
		<-block
		return int64(1), nil
	}}
	s := New(run, Config{MaxInFlight: 1, QueueDepth: 4, Deadline: 50 * time.Millisecond})

	go s.RunSketch(context.Background(), "d", uncacheableSketch(1), nil)
	<-started
	_, err := s.RunSketch(context.Background(), "d", uncacheableSketch(1), nil)
	if !errors.Is(err, ErrQueueTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrQueueTimeout wrapping DeadlineExceeded", err)
	}
	if got := HTTPStatus(err); got != http.StatusServiceUnavailable {
		t.Errorf("HTTPStatus = %d, want 503", got)
	}
	if st := s.Stats(); st.QueueTimeouts != 1 {
		t.Errorf("QueueTimeouts = %d, want 1", st.QueueTimeouts)
	}
}

// TestDefaultDeadline pins the 504 half: a query that is admitted but
// runs past the server default deadline returns DeadlineExceeded.
func TestDefaultDeadline(t *testing.T) {
	run := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		<-ctx.Done() // a well-behaved engine observes cancellation
		return nil, ctx.Err()
	}}
	s := New(run, Config{MaxInFlight: 2, Deadline: 30 * time.Millisecond})
	start := time.Now()
	_, err := s.RunSketch(context.Background(), "d", uncacheableSketch(1), nil)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("err = %v, want plain DeadlineExceeded", err)
	}
	if got := HTTPStatus(err); got != http.StatusGatewayTimeout {
		t.Errorf("HTTPStatus = %d, want 504", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// TestCallerDeadlinePreserved: a caller deadline tighter than the
// server default is kept, not widened.
func TestCallerDeadlinePreserved(t *testing.T) {
	run := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		d, ok := ctx.Deadline()
		if !ok {
			t.Error("no deadline on runner context")
		}
		if time.Until(d) > time.Second {
			t.Errorf("deadline widened to %v away", time.Until(d))
		}
		return int64(1), nil
	}}
	s := New(run, Config{Deadline: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := s.RunSketch(ctx, "d", uncacheableSketch(1), nil); err != nil {
		t.Fatal(err)
	}
}

// TestSingleFlightDedup pins the dedup contract: N concurrent identical
// cacheable queries execute the underlying scan exactly once, every
// subscriber gets the same result, and each subscriber's partial
// callback sees the shared stream.
func TestSingleFlightDedup(t *testing.T) {
	const n = 8
	release := make(chan struct{})
	arrived := make(chan struct{}, n)
	run := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
		<-release
		onPartial(engine.Partial{Result: int64(21), Done: 1, Total: 2})
		onPartial(engine.Partial{Result: int64(42), Done: 2, Total: 2})
		return int64(42), nil
	}}
	s := New(run, Config{MaxInFlight: 2, Deadline: -1})

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		partials = make([][]int64, n)
		results  = make([]sketch.Result, n)
		errs     = make([]error, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			results[i], errs[i] = s.RunSketch(context.Background(), "d", cacheableSketch(), func(p engine.Partial) {
				mu.Lock()
				partials[i] = append(partials[i], p.Result.(int64))
				mu.Unlock()
			})
		}(i)
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	// Give every goroutine a chance to join the flight before release;
	// late joiners are still correct (cumulative partials), but the
	// exactly-once assertion needs them all inside RunSketch.
	for i := 0; i < 1000; i++ {
		s.mu.Lock()
		joined := 0
		for _, fl := range s.flights {
			joined += len(fl.subs)
		}
		s.mu.Unlock()
		if joined == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := run.calls.Load(); got != 1 {
		t.Fatalf("underlying executions = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("subscriber %d: %v", i, errs[i])
		}
		if results[i] != sketch.Result(int64(42)) {
			t.Errorf("subscriber %d result = %v, want 42", i, results[i])
		}
		if len(partials[i]) != 2 || partials[i][0] != 21 || partials[i][1] != 42 {
			t.Errorf("subscriber %d partial stream = %v, want [21 42]", i, partials[i])
		}
	}
	st := s.Stats()
	if st.DedupJoins != n-1 {
		t.Errorf("DedupJoins = %d, want %d", st.DedupJoins, n-1)
	}
	if st.Execs != 1 {
		t.Errorf("Execs = %d, want 1", st.Execs)
	}
}

// TestUncacheableNeverDeduped: sketches without a cache key must each
// execute (their results may legitimately differ) — a seeded histogram
// among them, at any Rate.
func TestUncacheableNeverDeduped(t *testing.T) {
	spec := sketch.NumericBuckets(table.KindDouble, 0, 100, 4)
	for _, sk := range []sketch.Sketch{
		uncacheableSketch(1),
		&sketch.HistogramSketch{Col: "x", Buckets: spec, Seed: 7},
		&sketch.HistogramSketch{Col: "x", Buckets: spec, Rate: 0.3, Seed: 7},
		&sketch.HistogramSketch{Col: "x", Buckets: spec, Rate: 1, Seed: 7},
	} {
		block := make(chan struct{})
		started := make(chan struct{}, 2)
		run := &fakeRunner{fn: func(context.Context, string, sketch.Sketch, engine.PartialFunc) (sketch.Result, error) {
			started <- struct{}{}
			<-block
			return int64(1), nil
		}}
		s := New(run, Config{MaxInFlight: 2, Deadline: -1})
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.RunSketch(context.Background(), "d", sk, nil)
			}()
		}
		<-started
		<-started // both executing concurrently → no dedup happened
		close(block)
		wg.Wait()
		if got := run.calls.Load(); got != 2 {
			t.Errorf("%s: underlying executions = %d, want 2", sk.Name(), got)
		}
		if st := s.Stats(); st.DedupJoins != 0 {
			t.Errorf("%s: %d dedup joins, want 0", sk.Name(), st.DedupJoins)
		}
	}
}

// TestPanicIsolation pins the 500 contract: a panicking execution fails
// only its own query with *engine.PanicError, releases its slot, and
// the scheduler keeps serving.
func TestPanicIsolation(t *testing.T) {
	bad := true
	run := &fakeRunner{fn: func(context.Context, string, sketch.Sketch, engine.PartialFunc) (sketch.Result, error) {
		if bad {
			panic("injected handler panic")
		}
		return int64(7), nil
	}}
	s := New(run, Config{MaxInFlight: 1, Deadline: -1})

	_, err := s.RunSketch(context.Background(), "d", uncacheableSketch(1), nil)
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *engine.PanicError", err)
	}
	if got := HTTPStatus(err); got != http.StatusInternalServerError {
		t.Errorf("HTTPStatus = %d, want 500", got)
	}
	bad = false
	// The single slot must have been released despite the panic.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if res, err := s.RunSketch(context.Background(), "d", uncacheableSketch(1), nil); err != nil || res != sketch.Result(int64(7)) {
			t.Errorf("query after panic: res=%v err=%v", res, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("slot leaked by panicking query")
	}
	if st := s.Stats(); st.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}
}

// TestResultBudget pins resource governance: an oversized table page or
// heavy-hitters K is rejected up front with ErrResultBudget (413),
// without executing.
func TestResultBudget(t *testing.T) {
	run := &fakeRunner{fn: func(context.Context, string, sketch.Sketch, engine.PartialFunc) (sketch.Result, error) {
		return int64(1), nil
	}}
	s := New(run, Config{MaxResultRows: 100, Deadline: -1})
	_, err := s.RunSketch(context.Background(), "d", uncacheableSketch(101), nil)
	if !errors.Is(err, ErrResultBudget) {
		t.Fatalf("err = %v, want ErrResultBudget", err)
	}
	if got := HTTPStatus(err); got != http.StatusRequestEntityTooLarge {
		t.Errorf("HTTPStatus = %d, want 413", got)
	}
	if run.calls.Load() != 0 {
		t.Error("budget-rejected query executed anyway")
	}
	if _, err := s.RunSketch(context.Background(), "d", uncacheableSketch(100), nil); err != nil {
		t.Errorf("at-budget query rejected: %v", err)
	}
	// A heavy-hitters K is a result size too: it bounds the counters of
	// every partial summary and the rows of the answer.
	for _, sk := range []sketch.Sketch{
		&sketch.MisraGriesSketch{Col: "x", K: 101},
		&sketch.SampleHeavyHittersSketch{Col: "x", K: 101, Rate: 0.5, Seed: 1},
	} {
		calls := run.calls.Load()
		if _, err := s.RunSketch(context.Background(), "d", sk, nil); !errors.Is(err, ErrResultBudget) {
			t.Errorf("%s: err = %v, want ErrResultBudget", sk.Name(), err)
		}
		if run.calls.Load() != calls {
			t.Errorf("%s: budget-rejected query executed anyway", sk.Name())
		}
	}
	if _, err := s.RunSketch(context.Background(), "d", &sketch.MisraGriesSketch{Col: "x", K: 100}, nil); err != nil {
		t.Errorf("at-budget heavy hitters rejected: %v", err)
	}
}

// TestAbandonedFlightCancelled: when every subscriber of a shared
// execution disconnects, the execution's context is cancelled so the
// engine stops scanning, and a later identical query starts fresh.
func TestAbandonedFlightCancelled(t *testing.T) {
	execCtx := make(chan context.Context, 2)
	run := &fakeRunner{fn: func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		execCtx <- ctx
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	s := New(run, Config{MaxInFlight: 2, Deadline: -1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.RunSketch(ctx, "d", cacheableSketch(), nil)
		errc <- err
	}()
	fctx := <-execCtx
	cancel() // the only subscriber leaves
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("subscriber err = %v, want Canceled", err)
	}
	select {
	case <-fctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("flight context not cancelled after last subscriber left")
	}
	// A later identical query must not join the dead flight.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	go func() {
		fc := <-execCtx
		_ = fc // second execution started — unblock it via ctx2 timeout? No: finish promptly.
	}()
	// Make the second execution return immediately.
	run.fn = func(ctx context.Context, _ string, _ sketch.Sketch, _ engine.PartialFunc) (sketch.Result, error) {
		execCtx <- ctx
		return int64(9), nil
	}
	res, err := s.RunSketch(ctx2, "d", cacheableSketch(), nil)
	if err != nil || res != sketch.Result(int64(9)) {
		t.Fatalf("fresh query after abandoned flight: res=%v err=%v", res, err)
	}
	if got := run.calls.Load(); got != 2 {
		t.Errorf("underlying executions = %d, want 2 (no join on dead flight)", got)
	}
}

// TestHTTPStatusContract pins the full typed error → status mapping.
func TestHTTPStatusContract(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 200},
		{ErrShed, 429},
		{fmt.Errorf("wrapped: %w", ErrShed), 429},
		{fmt.Errorf("%w: %w", ErrQueueTimeout, context.DeadlineExceeded), 503},
		{ErrResultBudget, 413},
		{context.DeadlineExceeded, 504},
		{context.Canceled, StatusClientClosedRequest},
		{&engine.PanicError{Value: "x"}, 500},
		{errors.New("no such column"), 400},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestWriteErrorRetryAfter: overload statuses carry a Retry-After hint.
func TestWriteErrorRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, ErrShed)
	if rec.Code != 429 {
		t.Fatalf("code = %d", rec.Code)
	}
	if got, want := rec.Header().Get("Retry-After"), strconv.Itoa(int(DefaultRetryAfter/time.Second)); got != want {
		t.Errorf("Retry-After = %q, want %q", got, want)
	}
	rec = httptest.NewRecorder()
	WriteError(rec, errors.New("bad column"))
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After on 400 = %q, want unset", got)
	}
}

// TestRecoveredMiddleware: a panic in a render handler becomes that
// request's 500 and is counted.
func TestRecoveredMiddleware(t *testing.T) {
	s := New(&fakeRunner{}, Config{})
	h := s.Recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("render bug")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "render bug") {
		t.Errorf("body %q does not name the panic", rec.Body.String())
	}
	if st := s.Stats(); st.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}
}

// strictWriter fails the test on a second WriteHeader, which net/http
// would only log ("superfluous response.WriteHeader call").
type strictWriter struct {
	*httptest.ResponseRecorder
	t       *testing.T
	headers int
}

func (w *strictWriter) WriteHeader(code int) {
	w.headers++
	if w.headers > 1 {
		w.t.Errorf("WriteHeader called %d times", w.headers)
	}
	w.ResponseRecorder.WriteHeader(code)
}

// TestRecoveredAfterResponseStarted pins the double-write regression: a
// panic after the handler has begun its response must be counted but
// must NOT write a second status line or append an error body to a
// stream the client already consumed as a 200.
func TestRecoveredAfterResponseStarted(t *testing.T) {
	s := New(&fakeRunner{}, Config{})
	h := s.Recovered(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial payload"))
		panic("render bug mid-stream")
	})
	rec := &strictWriter{ResponseRecorder: httptest.NewRecorder(), t: t}
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d, want the already-sent 200", rec.Code)
	}
	if got := rec.Body.String(); got != "partial payload" {
		t.Errorf("body = %q; error text appended after the response started", got)
	}
	if st := s.Stats(); st.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", st.PanicsRecovered)
	}
}

// TestRecoveredUsesTypedErrorPath: the clean-panic 500 goes through
// WriteError, the one typed-error path every handler response takes
// (the old path called raw http.Error, bypassing the contract).
func TestRecoveredUsesTypedErrorPath(t *testing.T) {
	s := New(&fakeRunner{}, Config{})
	h := s.Recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("early bug") // nothing written yet: full 500 owed
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "early bug") {
		t.Errorf("body %q does not name the panic", rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Errorf("Retry-After on a 500 = %q, want unset", got)
	}
}

// TestRecoveredFlushPassthrough: wrapping must not hide the underlying
// writer's http.Flusher from streaming handlers.
func TestRecoveredFlushPassthrough(t *testing.T) {
	s := New(&fakeRunner{}, Config{})
	flushed := false
	h := s.Recovered(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("wrapped writer lost http.Flusher")
		}
		w.Write([]byte("x"))
		f.Flush()
		flushed = true
	})
	h(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	if !flushed {
		t.Error("handler never reached Flush")
	}
}
