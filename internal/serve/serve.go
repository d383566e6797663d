// Package serve is the overload-safe query scheduler between the HTTP
// handlers and the engine: every sketch execution of a multi-user
// Hillview deployment flows through a Scheduler, which provides
//
//   - admission control: a bounded semaphore of concurrently executing
//     scans plus a bounded FIFO wait queue; work past both is rejected
//     promptly (ErrShed → 429 + Retry-After) instead of piling up until
//     the process OOMs;
//   - deadlines: queries without their own deadline get the server
//     default, which propagates through engine.Sketch/SketchReplicated
//     down to chunk tasks (the mid-chunk cancellation probe,
//     table.Table.WithCancel) and cluster RPCs (MsgCancel), so an
//     abandoned browser tab stops burning cores;
//   - cache first: a query whose result already sits in the engine's
//     computation cache (CacheProber) is answered before any of the
//     waiting below — it takes no admission slot and sits out no window;
//   - in-flight dedup: identical (dataset, sketch) queries join one
//     running execution via single-flight and share its partial stream —
//     the computation cache (paper §5.4) extended to running queries,
//     sound because summaries are pure functions of (dataset, sketch)
//     under Hillview's determinism contract;
//   - scan batching: distinct cacheable queries arriving on the same
//     dataset within Config.BatchWindow coalesce into one
//     sketch.MultiSketch execution — one leaf pass over the data feeds
//     every member, whose results are demuxed so each subscriber sees
//     exactly its own sketch's partials and final result, bit-identical
//     to a solo run (the batch shares the solo chunk geometry, seeds,
//     and merge order). A member whose subscribers all leave is masked
//     out of the remaining scan without disturbing its siblings;
//   - panic isolation and resource governance: a panic anywhere under a
//     query becomes that query's 500, counted in Stats, and per-query
//     result-row budgets bound table-page responses before they execute.
//
// The Scheduler wraps anything with the engine root's RunSketch shape
// and exposes the same shape itself, so it slots between the
// spreadsheet layer and the engine without either knowing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Runner executes sketches; *engine.Root satisfies it, and Scheduler
// itself does too (schedulers nest, though one layer is the norm).
type Runner interface {
	RunSketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error)
}

// CacheProber is an optional Runner extension (*engine.Root provides
// it): answer a query from the computation cache alone, reporting false
// — and doing nothing — on a miss. The Scheduler probes it before any
// waiting, so a cache hit never sits out a batching window.
type CacheProber interface {
	Cached(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, bool)
}

// Defaults for Config fields left zero.
const (
	DefaultQueueDepth    = 64
	DefaultDeadline      = 30 * time.Second
	DefaultMaxResultRows = 100000
	DefaultRetryAfter    = time.Second
	// DefaultBatchWindow is the batching window the hillview binary
	// passes by default; the Config zero value keeps batching off.
	DefaultBatchWindow = time.Millisecond
)

// Config tunes a Scheduler. The zero value gets sensible server
// defaults; set a field negative to disable it where noted.
type Config struct {
	// MaxInFlight bounds concurrently executing scans. Each scan is
	// internally parallel across the leaf pool, so this is a multiple of
	// GOMAXPROCS, not of expected user count. 0 means 2×GOMAXPROCS.
	MaxInFlight int
	// QueueDepth bounds queries waiting for an execution slot; arrivals
	// past it are shed with ErrShed. 0 means DefaultQueueDepth.
	QueueDepth int
	// Deadline is the default per-query deadline, applied when the
	// caller's context has none tighter. 0 means DefaultDeadline; < 0
	// disables the default deadline.
	Deadline time.Duration
	// MaxResultRows bounds the row count a single query may request
	// (a nextk table page's K, a heavy-hitters K). 0 means
	// DefaultMaxResultRows; < 0 disables the budget.
	MaxResultRows int
	// RetryAfter is the hint written on 429/503 responses. 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// BatchWindow is the scan-batching window: a cacheable query that
	// cannot join an identical in-flight execution waits up to this long
	// for other cacheable queries on the same dataset, and the group runs
	// as one sketch.MultiSketch leaf pass. 0 (the zero value) disables
	// batching — every query executes exactly as without this feature.
	BatchWindow time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Deadline == 0 {
		c.Deadline = DefaultDeadline
	}
	if c.MaxResultRows == 0 {
		c.MaxResultRows = DefaultMaxResultRows
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	return c
}

// Stats is a snapshot of scheduler telemetry. InFlight and Queued are
// gauges; the rest are cumulative counters.
type Stats struct {
	InFlight         int64 `json:"in_flight"`
	Queued           int64 `json:"queued"`
	Admitted         int64 `json:"admitted"`
	Shed             int64 `json:"shed"`
	QueueTimeouts    int64 `json:"queue_timeouts"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Cancelled        int64 `json:"cancelled"`
	PanicsRecovered  int64 `json:"panics_recovered"`
	DedupJoins       int64 `json:"dedup_joins"`
	Execs            int64 `json:"execs"`
	BatchesFormed    int64 `json:"batches_formed"`
	BatchMembers     int64 `json:"batch_members"`
	ScansSaved       int64 `json:"scans_saved"`
}

// Scheduler is the serving layer's query scheduler. It is safe for
// concurrent use by any number of request goroutines.
type Scheduler struct {
	run   Runner
	cfg   Config
	slots chan struct{} // execution semaphore; buffered to MaxInFlight
	// gens, when the runner provides generations (*engine.Root does),
	// qualifies dedup and batch keys with the dataset's generation, so a
	// query started before an ingest seal never shares its execution or
	// result with one started after.
	gens engine.GenerationProvider
	// cache, when the runner can answer from its computation cache
	// without running (CacheProber), is consulted before dedup and
	// batching.
	cache CacheProber

	inflight  atomic.Int64
	queued    atomic.Int64
	admitted  atomic.Int64
	shed      atomic.Int64
	queueTO   atomic.Int64
	deadlines atomic.Int64
	cancels   atomic.Int64
	panics    atomic.Int64
	dedups    atomic.Int64
	execs     atomic.Int64

	batchesFormed atomic.Int64
	batchMembers  atomic.Int64
	scansSaved    atomic.Int64

	// latency is the end-to-end RunSketch latency histogram (queue wait
	// included), registered with the obs registry by the hillview binary.
	latency obs.Histogram

	mu      sync.Mutex
	flights map[string]*flight
	batches map[string]*pendingBatch // per datasetID, while a window is open
}

// New builds a scheduler over run. When run reports dataset generations
// (engine.GenerationProvider — *engine.Root does), dedup and batch keys
// are generation-qualified automatically.
func New(run Runner, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		run:     run,
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		flights: make(map[string]*flight),
		batches: make(map[string]*pendingBatch),
	}
	if gp, ok := run.(engine.GenerationProvider); ok {
		s.gens = gp
	}
	if cp, ok := run.(CacheProber); ok {
		s.cache = cp
	}
	return s
}

// generation resolves a dataset's current generation (0 when the runner
// does not track them).
func (s *Scheduler) generation(datasetID string) uint64 {
	if s.gens == nil {
		return 0
	}
	return s.gens.DatasetGeneration(datasetID)
}

// Config returns the scheduler's effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// LatencyHistogram exposes the end-to-end query latency histogram for
// registration with an obs.Registry.
func (s *Scheduler) LatencyHistogram() *obs.Histogram { return &s.latency }

// Stats returns a telemetry snapshot.
func (s *Scheduler) Stats() Stats {
	return Stats{
		InFlight:         s.inflight.Load(),
		Queued:           s.queued.Load(),
		Admitted:         s.admitted.Load(),
		Shed:             s.shed.Load(),
		QueueTimeouts:    s.queueTO.Load(),
		DeadlineExceeded: s.deadlines.Load(),
		Cancelled:        s.cancels.Load(),
		PanicsRecovered:  s.panics.Load(),
		DedupJoins:       s.dedups.Load(),
		Execs:            s.execs.Load(),
		BatchesFormed:    s.batchesFormed.Load(),
		BatchMembers:     s.batchMembers.Load(),
		ScansSaved:       s.scansSaved.Load(),
	}
}

// RunSketch implements Runner: it runs sk over datasetID under
// admission control, the default deadline, and single-flight dedup.
// Errors are the typed scheduler contract (ErrShed, ErrQueueTimeout,
// ErrResultBudget, context errors, *engine.PanicError) plus whatever
// the underlying runner returns; HTTPStatus maps them to status codes.
func (s *Scheduler) RunSketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	defer s.latency.ObserveSince(time.Now())
	tr := obs.TraceFrom(ctx)
	tr.SetQuery(datasetID, sk.Name())
	if err := s.checkBudget(sk); err != nil {
		return nil, err
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()

	// Only deterministic (cacheable) sketches may share an execution:
	// the cache key identifies the result, so every subscriber is owed
	// the same bits. Randomized sketches carry explicit seeds — equal
	// seeds make them cacheable too; distinct seeds mean distinct
	// queries, which is exactly what the key captures. Growing datasets
	// add their generation to the identity: a result is a pure function
	// of (dataset contents, sketch), and the generation stands in for
	// the contents.
	qualified := engine.QualifyDataset(datasetID, s.generation(datasetID))
	key, sharable := engine.Key(qualified, sk)
	if !sharable {
		return s.classify(s.execute(ctx, datasetID, sk, onPartial))
	}
	// Lookup, then dedup, then batch, then scan: a result already in the
	// computation cache costs no admission slot and no window wait.
	if s.cache != nil {
		if res, ok := s.cache.Cached(ctx, datasetID, sk, onPartial); ok {
			return res, nil
		}
	}
	// WholePartition sketches change the leaf chunk geometry for every
	// member of a batch, which would break the bit-identity contract, so
	// they keep the plain single-flight path. Batches gather per
	// qualified dataset: members must all scan the same live set.
	if _, whole := sk.(sketch.WholePartition); s.cfg.BatchWindow > 0 && !whole {
		fl, sub := s.joinBatch(tr, key, qualified, datasetID, sk, onPartial)
		return s.classify(fl.wait(ctx, s, sub))
	}
	fl, sub := s.joinFlight(tr, key, datasetID, sk, onPartial)
	return s.classify(fl.wait(ctx, s, sub))
}

// classify tallies per-query outcome counters and passes err through.
func (s *Scheduler) classify(res sketch.Result, err error) (sketch.Result, error) {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlines.Add(1)
	case errors.Is(err, context.Canceled):
		s.cancels.Add(1)
	}
	return res, err
}

// checkBudget rejects queries whose requested result size exceeds the
// per-query budget, before any execution cost is paid.
func (s *Scheduler) checkBudget(sk sketch.Sketch) error {
	max := s.cfg.MaxResultRows
	if max <= 0 {
		return nil
	}
	// A heavy-hitters K is a page size too: the answer lists up to K rows
	// and every partial summary carries up to K counters.
	var k int
	var what string
	switch q := sk.(type) {
	case *sketch.NextKSketch:
		k, what = q.K, "table page"
	case *sketch.MisraGriesSketch:
		k, what = q.K, "heavy-hitters k"
	case *sketch.SampleHeavyHittersSketch:
		k, what = q.K, "heavy-hitters k"
	}
	if k > max {
		return fmt.Errorf("%w: %s of %d rows exceeds the %d-row limit", ErrResultBudget, what, k, max)
	}
	return nil
}

// withDeadline applies the server default deadline unless the caller
// already carries a tighter one.
func (s *Scheduler) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.Deadline <= 0 {
		return ctx, func() {}
	}
	if d, ok := ctx.Deadline(); ok && time.Until(d) <= s.cfg.Deadline {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.Deadline)
}

// execute runs one underlying execution: admission, then the runner,
// with panics recovered into the query's error.
func (s *Scheduler) execute(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (res sketch.Result, err error) {
	tr := obs.TraceFrom(ctx)
	qsp := tr.StartSpan("serve.queue")
	if err := s.admit(ctx); err != nil {
		qsp.EndNote("rejected")
		return nil, err
	}
	qsp.End()
	s.inflight.Add(1)
	esp := tr.StartSpan("serve.exec")
	defer func() {
		s.inflight.Add(-1)
		<-s.slots
		// Recover here — after the slot release defer is queued — so a
		// panicking sketch can neither leak a slot nor kill the server.
		if pe := engine.CapturePanic(recover()); pe != nil {
			res, err = nil, pe
		}
		var pe *engine.PanicError
		if errors.As(err, &pe) {
			s.panics.Add(1)
		}
		esp.End()
	}()
	s.execs.Add(1)
	return s.run.RunSketch(ctx, datasetID, sk, onPartial)
}

// admit acquires an execution slot or a queue position, shedding when
// both are full. Blocked senders on the slot channel are served FIFO by
// the runtime, which is the bounded FIFO wait queue.
func (s *Scheduler) admit(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		s.admitted.Add(1)
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.shed.Add(1)
		return fmt.Errorf("%w: %d executing, %d queued", ErrShed, s.cfg.MaxInFlight, s.cfg.QueueDepth)
	}
	defer s.queued.Add(-1)
	select {
	case s.slots <- struct{}{}:
		s.admitted.Add(1)
		return nil
	case <-ctx.Done():
		err := ctx.Err()
		if errors.Is(err, context.DeadlineExceeded) {
			// The deadline ran out before execution ever started: that is
			// server congestion (503), not a slow query (504).
			s.queueTO.Add(1)
			return fmt.Errorf("%w: %w", ErrQueueTimeout, err)
		}
		return err
	}
}

// flight is one shared execution of a cacheable (dataset, sketch) pair.
// All bookkeeping is under Scheduler.mu; the execution itself runs on
// its own goroutine with a detached, server-deadlined context so no
// single subscriber's disconnect kills it — only all of them leaving
// does.
type flight struct {
	key      string
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	res      sketch.Result
	err      error
	subs     map[int]*subscriber
	nextSub  int
	finished bool
	removed  bool

	// Batched flights: set at batch formation. The flight is member
	// memberIdx of batch's MultiSketch; its ctx/cancel are unused (the
	// batch owns the execution context) and abandonment masks the member
	// instead of cancelling (see wait).
	batch     *batchExec
	memberIdx int

	// Tracing: the creating query's trace (nil when untraced) rides the
	// flight so the shared execution's spans land somewhere; joiners only
	// get a dedup annotation. bwin is the open serve.batch_window span of
	// a flight waiting in a batching window (zero when untraced or solo).
	tr   *obs.Trace
	bwin obs.SpanHandle
}

// subscriber is one query joined to a flight. gone guards the partial
// callback: after the subscriber's wait returns, its callback is never
// invoked again (the HTTP handler behind it is gone).
type subscriber struct {
	token     int
	mu        sync.Mutex
	gone      bool
	onPartial engine.PartialFunc
}

func (sub *subscriber) deliver(p engine.Partial) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.gone && sub.onPartial != nil {
		sub.onPartial(p)
	}
}

// newFlight builds a registered flight for key with a detached,
// server-deadlined context. Caller holds s.mu.
func (s *Scheduler) newFlight(key string) *flight {
	fctx, fcancel := context.WithCancel(context.Background())
	if s.cfg.Deadline > 0 {
		fctx, fcancel = context.WithTimeout(context.Background(), s.cfg.Deadline)
	}
	fl := &flight{key: key, ctx: fctx, cancel: fcancel, done: make(chan struct{}), subs: make(map[int]*subscriber)}
	s.flights[key] = fl
	return fl
}

// subscribe attaches a new subscriber to fl. Caller holds s.mu.
func (fl *flight) subscribe(onPartial engine.PartialFunc) *subscriber {
	sub := &subscriber{token: fl.nextSub, onPartial: onPartial}
	fl.nextSub++
	fl.subs[sub.token] = sub
	return sub
}

// joinFlight subscribes to the running flight for key, creating (and
// launching) it if absent. The creator's trace is injected into the
// flight's detached context so the shared execution records its spans
// there; joiners get a serve.dedup_join annotation instead.
func (s *Scheduler) joinFlight(tr *obs.Trace, key, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (*flight, *subscriber) {
	s.mu.Lock()
	fl := s.flights[key]
	created := fl == nil
	if created {
		fl = s.newFlight(key)
		if tr != nil {
			fl.tr = tr
			fl.ctx = obs.WithTrace(fl.ctx, tr)
		}
	} else {
		s.dedups.Add(1)
		tr.Annotate("serve.dedup_join", "")
	}
	sub := fl.subscribe(onPartial)
	s.mu.Unlock()
	if created {
		go s.runFlight(fl, datasetID, sk)
	}
	return fl, sub
}

// runFlight executes the shared query and publishes its outcome.
func (s *Scheduler) runFlight(fl *flight, datasetID string, sk sketch.Sketch) {
	defer fl.cancel()
	res, err := s.execute(fl.ctx, datasetID, sk, fl.fanout(s))
	s.mu.Lock()
	fl.res, fl.err = res, err
	fl.finished = true
	if !fl.removed {
		delete(s.flights, fl.key)
		fl.removed = true
	}
	s.mu.Unlock()
	close(fl.done)
}

// fanout builds the flight's partial callback: each partial is
// delivered to every current subscriber. Partials are cumulative
// snapshots, so a subscriber that joined late simply starts at the
// stream's current prefix.
func (fl *flight) fanout(s *Scheduler) engine.PartialFunc {
	return func(p engine.Partial) {
		s.mu.Lock()
		subs := make([]*subscriber, 0, len(fl.subs))
		for _, sub := range fl.subs {
			subs = append(subs, sub)
		}
		s.mu.Unlock()
		for _, sub := range subs {
			sub.deliver(p)
		}
	}
}

// wait blocks until the flight finishes or the subscriber's own context
// ends, then detaches. When the last subscriber detaches from an
// unfinished flight, the flight is cancelled and unregistered — later
// identical queries start fresh rather than joining a dying execution.
func (fl *flight) wait(ctx context.Context, s *Scheduler, sub *subscriber) (sketch.Result, error) {
	var (
		res sketch.Result
		err error
	)
	select {
	case <-fl.done:
		res, err = fl.res, fl.err
	case <-ctx.Done():
		err = ctx.Err()
	}
	sub.mu.Lock()
	sub.gone = true
	sub.mu.Unlock()
	s.mu.Lock()
	delete(fl.subs, sub.token)
	if len(fl.subs) == 0 && !fl.finished {
		if !fl.removed {
			delete(s.flights, fl.key)
			fl.removed = true
		}
		if fl.batch != nil {
			// Abandoning one batch member must not kill its siblings:
			// mask the member out of the remaining scan and cancel the
			// batch only when every member is gone. (A flight abandoned
			// before batch formation has batch == nil; formBatch drops
			// subscriber-less flights instead.)
			fl.batch.mask.Disable(fl.memberIdx)
			fl.batch.live--
			if fl.batch.live == 0 {
				fl.batch.cancel()
			}
		} else {
			fl.cancel()
		}
	}
	s.mu.Unlock()
	return res, err
}
