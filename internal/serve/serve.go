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
//     down to partition scans (the mid-scan cancellation probe,
//     table.Table.WithCancel) and cluster RPCs (MsgCancel), so an
//     abandoned browser tab stops burning cores;
//   - one admission rule for every cacheable query — lookup, dedup,
//     batch, scan. A result already in the engine's computation cache
//     (CacheProber) is answered at once: no slot, no wait. Else an
//     identical (dataset, sketch) query already registered shares its
//     execution and partial stream — the computation cache (paper §5.4)
//     extended to running queries, sound because summaries are pure
//     functions of (dataset, sketch). Else, behind a busy dataset —
//     another such query on the same generation of it gathering or
//     scanning — it waits up to Config.BatchWindow for companions; on an
//     idle one there is nobody to wait for and it starts at once. Queries
//     that start together run as one sketch.MultiSketch: one leaf pass
//     feeds every member and each subscriber sees exactly its own
//     sketch's partials and result, bit-identical to a solo run (same
//     partitions, seeds, merge order); a member whose subscribers all
//     leave still finishes with the pass and is cached whole, and the
//     pass is cancelled only when every member has left. A query that is
//     itself a MultiSketch — one chart's sketches — is a batch that
//     arrives formed: its members pass the same clauses one by one and
//     those left run together at once, since waiting could only add
//     strangers;
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

// DefaultRetryAfter is the Retry-After hint WriteError attaches to
// 429/503 responses.
const DefaultRetryAfter = time.Second

// Defaults for Config fields left zero.
const (
	DefaultQueueDepth    = 64
	DefaultDeadline      = 30 * time.Second
	DefaultMaxResultRows = 100000
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
	// BatchWindow is the longest a cacheable query waits behind a busy
	// dataset for other cacheable queries on it; those gathered run as one
	// sketch.MultiSketch leaf pass. A query arriving on an idle dataset
	// never waits. 0 (the zero value) turns windowed gathering off.
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
	flights map[string]*flight   // registered shared executions, by key
	busy    map[string]int       // registered flights per qualified dataset
	batches map[string][]*flight // flights gathering per qualified dataset, while its window is open
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
		busy:    make(map[string]int),
		batches: make(map[string][]*flight),
	}
	s.gens, _ = run.(engine.GenerationProvider)
	s.cache, _ = run.(CacheProber)
	return s
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

// RunSketch implements Runner: it runs sk over datasetID under the
// default deadline and the admission rule of the package comment.
// Errors are the typed scheduler contract (ErrShed, ErrQueueTimeout,
// ErrResultBudget, context errors, *engine.PanicError) plus whatever
// the underlying runner returns; HTTPStatus maps them to status codes.
// A *sketch.MultiSketch gets a *sketch.MultiResult back, and partials of
// that shape (a slot is nil before its member's first summary).
func (s *Scheduler) RunSketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	defer s.latency.ObserveSince(time.Now())
	tr := obs.TraceFrom(ctx)
	tr.SetQuery(datasetID, sk.Name())
	members, grouped := sketch.MembersOf(sk)
	// Only deterministic (cacheable) sketches may share an execution:
	// the cache key identifies the result, so every subscriber is owed
	// the same bits (a randomized sketch's explicit seed is part of its
	// key). Growing datasets add their generation to the identity: a
	// result is a pure function of (dataset contents, sketch), and the
	// generation stands in for the contents.
	qualified, sharable := datasetID, true
	if s.gens != nil {
		qualified = engine.QualifyDataset(datasetID, s.gens.DatasetGeneration(datasetID))
	}
	for _, m := range members {
		if err := s.checkBudget(m); err != nil {
			return nil, err
		}
		_, ok := engine.Key(qualified, m)
		sharable = sharable && ok
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	if !sharable {
		if grouped {
			s.countBatch(len(members))
		}
		return s.classify(s.execute(ctx, datasetID, sk, onPartial))
	}
	// Lookup: a member already in the computation cache is answered.
	got := make([]sketch.Result, len(members))
	var miss []int
	for i, m := range members {
		if s.cache != nil {
			if res, ok := s.cache.Cached(ctx, datasetID, m, nil); ok {
				got[i] = res
				continue
			}
		}
		miss = append(miss, i)
	}
	// A group's partials: every member records its latest summary; the
	// last, last to hear of each round of their pass, hands the round on.
	var pmu sync.Mutex // guards cur
	cur := append([]sketch.Result(nil), got...)
	partialOf := func(i int) engine.PartialFunc {
		if !grouped || onPartial == nil {
			return onPartial
		}
		last := i == miss[len(miss)-1]
		return func(p engine.Partial) {
			pmu.Lock()
			if cur[i] = p.Result; last {
				p.Result = &sketch.MultiResult{Members: append([]sketch.Result(nil), cur...)}
			}
			pmu.Unlock()
			if last {
				onPartial(p)
			}
		}
	}
	// Dedup, then batch: a member joins the flight registered under its
	// key or registers its own, and new flights gather behind a busy
	// dataset or start at once. A group never gathers, nor does a sketch
	// that declares no columns (MetaSketch): a batch acquires its
	// members' column union, so it would widen the pass to every column.
	columnless := sketch.SketchColumns(sk) == nil
	fls := make([]*flight, len(miss))
	subs := make([]*subscriber, len(miss))
	var fresh []*flight
	s.mu.Lock()
	gather := s.cfg.BatchWindow > 0 && !grouped && !columnless && s.busy[qualified] > 0
	for n, i := range miss {
		key, _ := engine.Key(qualified, members[i])
		if fls[n] = s.flights[key]; fls[n] == nil {
			fls[n] = s.newFlight(key, qualified, members[i], tr)
			fresh = append(fresh, fls[n])
		} else {
			s.dedups.Add(1)
			tr.Annotate("serve.dedup_join", "")
		}
		subs[n] = &subscriber{onPartial: partialOf(i)}
		fls[n].subs[subs[n]] = true
	}
	if gather {
		s.gather(qualified, datasetID, fresh)
	}
	s.mu.Unlock()
	if !gather && len(fresh) > 0 {
		s.launch(datasetID, fresh)
	}
	// Scan: collect what the flights deliver.
	var err error
	for n, i := range miss {
		res, werr := fls[n].wait(ctx, s, subs[n])
		if got[i] = res; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return s.classify(nil, err)
	}
	var out sketch.Result = &sketch.MultiResult{Members: got}
	if !grouped {
		out = got[0]
	}
	if len(miss) == 0 && onPartial != nil {
		onPartial(engine.Partial{Result: out, Done: 1, Total: 1})
	}
	return out, nil
}

// countBatch records one pass shared by n members.
func (s *Scheduler) countBatch(n int) {
	s.batchesFormed.Add(1)
	s.batchMembers.Add(int64(n))
	s.scansSaved.Add(int64(n - 1))
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

// flight is one cacheable (dataset, sketch) pair being computed, shared
// by every query that asked for it. All bookkeeping is under
// Scheduler.mu; the scan runs in a pass (batchExec) under a detached,
// server-deadlined context, so no single subscriber's disconnect kills
// it — only all of them leaving does.
type flight struct {
	key      string
	dataset  string // generation-qualified: what busy and batches count under
	sk       sketch.Sketch
	done     chan struct{}
	res      sketch.Result
	err      error
	subs     map[*subscriber]bool
	finished bool
	removed  bool

	// Set at launch: the pass the flight is a member of.
	batch *batchExec

	// The creating query's trace (nil when untraced) rides the flight so
	// the pass's spans land somewhere; joiners only get an annotation.
	// bwin is the open serve.batch_window span of a gathering flight.
	tr   *obs.Trace
	bwin obs.SpanHandle
}

// subscriber is one query joined to a flight. gone guards the partial
// callback: after the subscriber's wait returns, its callback is never
// invoked again (the HTTP handler behind it is gone).
type subscriber struct {
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

// newFlight registers the flight of sk under key. Caller holds s.mu.
func (s *Scheduler) newFlight(key, dataset string, sk sketch.Sketch, tr *obs.Trace) *flight {
	fl := &flight{key: key, dataset: dataset, sk: sk, tr: tr, done: make(chan struct{}), subs: make(map[*subscriber]bool)}
	s.flights[key] = fl
	s.busy[dataset]++
	return fl
}

// retire unregisters fl, finished or abandoned, and with it its share of
// the dataset's busy count — the one place either is released. Caller
// holds s.mu.
func (s *Scheduler) retire(fl *flight) {
	if fl.removed {
		return
	}
	fl.removed = true
	delete(s.flights, fl.key)
	if s.busy[fl.dataset]--; s.busy[fl.dataset] == 0 {
		delete(s.busy, fl.dataset)
	}
}

// finish publishes fl's outcome and wakes its subscribers. Caller holds
// s.mu.
func (s *Scheduler) finish(fl *flight, res sketch.Result, err error) {
	fl.res, fl.err, fl.finished = res, err, true
	s.retire(fl)
	close(fl.done)
}

// wait blocks until the flight finishes or the subscriber's own context
// ends, then detaches. When the last subscriber detaches from an
// unfinished flight, the flight is abandoned and unregistered — later
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
	delete(fl.subs, sub)
	if len(fl.subs) == 0 && !fl.finished {
		s.retire(fl)
		if be := fl.batch; be != nil {
			// Abandoning one member of a pass must not kill its siblings:
			// the pass is cancelled only when every member is gone. (Before
			// launch there is no pass yet; launch drops subscriber-less
			// flights.)
			if be.live--; be.live == 0 {
				be.cancel()
			}
		}
	}
	s.mu.Unlock()
	return res, err
}
