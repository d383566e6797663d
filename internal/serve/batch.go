package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Scan batching. A cacheable query that cannot dedup-join an identical
// in-flight execution registers its flight and waits: the first such
// arrival on a dataset opens a Config.BatchWindow timer, and when it
// fires every flight gathered on that dataset runs as one
// sketch.MultiSketch — a single admission slot, a single leaf pass over
// the table with the member sketches' column unions acquired once per
// chunk. Each member's partials and final result are demuxed out of the
// composite, so a subscriber cannot tell (by the bits it receives)
// whether its query ran solo or batched: the batch shares the solo
// path's chunk geometry, per-chunk sampling seeds, and merge order. Nor
// can the cache: when the pass finishes the engine root stores each
// member's result under the member's own key (masked members excepted),
// so a repeat of any of them is a hit whichever way it first ran.

// pendingBatch collects flights on one dataset while its window is
// open. Guarded by Scheduler.mu.
type pendingBatch struct {
	flights  []*flight
	sketches []sketch.Sketch
}

// batchExec is one formed batch: the MultiSketch execution shared by
// its member flights. members/mask/live are fixed at formation; live is
// decremented under Scheduler.mu as members are abandoned.
type batchExec struct {
	ctx     context.Context
	cancel  context.CancelFunc
	members []*flight
	mask    *sketch.MemberMask
	live    int
}

// joinBatch subscribes a cacheable query to its dataset's open batching
// window, dedup-joining an existing flight for the same key when one is
// already registered (pending or executing). batchID is the
// generation-qualified dataset identity the window gathers under — two
// queries may share a scan only when they scan the same live set;
// datasetID is the bare ID the execution runs against.
func (s *Scheduler) joinBatch(tr *obs.Trace, key, batchID, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (*flight, *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl := s.flights[key]; fl != nil {
		s.dedups.Add(1)
		tr.Annotate("serve.dedup_join", "")
		return fl, fl.subscribe(onPartial)
	}
	fl := s.newFlight(key)
	if tr != nil {
		fl.tr = tr
		fl.ctx = obs.WithTrace(fl.ctx, tr)
		fl.bwin = tr.StartSpan("serve.batch_window")
	}
	sub := fl.subscribe(onPartial)
	b := s.batches[batchID]
	if b == nil {
		b = &pendingBatch{}
		s.batches[batchID] = b
		time.AfterFunc(s.cfg.BatchWindow, func() { s.formBatch(batchID, datasetID, b) })
	}
	b.flights = append(b.flights, fl)
	b.sketches = append(b.sketches, sk)
	return fl, sub
}

// formBatch closes a window and launches the gathered flights: solo
// when one remains, as a MultiSketch otherwise.
func (s *Scheduler) formBatch(batchID, datasetID string, b *pendingBatch) {
	s.mu.Lock()
	if s.batches[batchID] == b {
		delete(s.batches, batchID)
	}
	// A flight abandoned before formation was already unregistered and
	// cancelled by wait (its batch field was still nil); drop it here so
	// the scan does not pay for a query nobody is waiting on.
	var (
		alive []*flight
		sks   []sketch.Sketch
	)
	for i, fl := range b.flights {
		if len(fl.subs) > 0 {
			alive = append(alive, fl)
			sks = append(sks, b.sketches[i])
		}
	}
	for _, fl := range alive {
		fl.bwin.EndNote(fmt.Sprintf("members=%d", len(alive)))
	}
	switch len(alive) {
	case 0:
		s.mu.Unlock()
		return
	case 1:
		// A batch of one is exactly a solo single-flight execution.
		s.mu.Unlock()
		go s.runFlight(alive[0], datasetID, sks[0])
		return
	}
	multi, err := sketch.NewMultiSketch(sks...)
	if err != nil {
		// Cannot compose (should be unreachable: WholePartition and
		// nested multis never reach joinBatch) — fail every member with
		// the composition error rather than wedging their waiters.
		for _, fl := range alive {
			fl.err = fmt.Errorf("serve: batch formation: %w", err)
			fl.finished = true
			if !fl.removed {
				delete(s.flights, fl.key)
				fl.removed = true
			}
			close(fl.done)
			fl.cancel()
		}
		s.mu.Unlock()
		return
	}
	mask := sketch.NewMemberMask(len(alive))
	multi.SetMask(mask)
	bctx, bcancel := context.WithCancel(context.Background())
	if s.cfg.Deadline > 0 {
		bctx, bcancel = context.WithTimeout(context.Background(), s.cfg.Deadline)
	}
	// The composite execution records its spans into the first traced
	// member's trace (one scan, one owner); the rest keep their
	// batch_window span as the record of having ridden along.
	for _, fl := range alive {
		if fl.tr != nil {
			bctx = obs.WithTrace(bctx, fl.tr)
			break
		}
	}
	be := &batchExec{ctx: bctx, cancel: bcancel, members: alive, mask: mask, live: len(alive)}
	for i, fl := range alive {
		fl.batch = be
		fl.memberIdx = i
	}
	s.batchesFormed.Add(1)
	s.batchMembers.Add(int64(len(alive)))
	s.scansSaved.Add(int64(len(alive) - 1))
	s.mu.Unlock()
	go s.runBatch(be, datasetID, multi)
}

// runBatch executes the composite query under one admission slot and
// demuxes the outcome to every member flight.
func (s *Scheduler) runBatch(be *batchExec, datasetID string, multi *sketch.MultiSketch) {
	defer be.cancel()
	res, err := s.execute(be.ctx, datasetID, multi, be.fanout(s))
	mr, ok := res.(*sketch.MultiResult)
	if err == nil && (!ok || len(mr.Members) != len(be.members)) {
		err = fmt.Errorf("serve: batch execution returned %T for %d members", res, len(be.members))
	}
	s.mu.Lock()
	for i, fl := range be.members {
		if err != nil {
			fl.err = err
		} else {
			fl.res = mr.Members[i]
		}
		fl.finished = true
		if !fl.removed {
			delete(s.flights, fl.key)
			fl.removed = true
		}
	}
	s.mu.Unlock()
	for _, fl := range be.members {
		close(fl.done)
		fl.cancel()
	}
}

// fanout builds the batch's partial callback: each composite partial is
// split member-wise and delivered to that member's subscribers, so a
// subscriber's stream carries only its own sketch's summaries.
func (be *batchExec) fanout(s *Scheduler) engine.PartialFunc {
	type delivery struct {
		sub *subscriber
		p   engine.Partial
	}
	return func(p engine.Partial) {
		mr, ok := p.Result.(*sketch.MultiResult)
		if !ok || len(mr.Members) != len(be.members) {
			return
		}
		var out []delivery
		s.mu.Lock()
		for i, fl := range be.members {
			for _, sub := range fl.subs {
				out = append(out, delivery{sub, engine.Partial{Result: mr.Members[i], Done: p.Done, Total: p.Total}})
			}
		}
		s.mu.Unlock()
		for _, d := range out {
			d.sub.deliver(d.p)
		}
	}
}
