package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Scan batching: the last two clauses of RunSketch's admission rule.
//
// A dataset is busy while any flight is registered on the same
// generation of it, gathering or scanning (Scheduler.busy, kept by
// newFlight and retire). A new flight on an idle dataset launches at
// once — a wait would buy latency and no company. Behind a busy one it
// gathers: the first such flight opens a Config.BatchWindow timer, and
// when it fires all that gathered launch together. So K simultaneous
// arrivals on an idle dataset cost two scans: the first starts at once,
// the other K−1 share a pass behind it. A group (a MultiSketch submitted
// as one query) launches at once too: it arrived formed.
//
// Flights launched together run as one sketch.MultiSketch — one slot,
// one leaf pass, the members' column union acquired once per partition —
// and cannot tell by the bits they receive: the pass shares the solo
// path's partitions, per-partition sampling seeds and merge order. Nor
// can the cache: the engine root stores each member under its own key.
// A member abandoned mid-pass still folds every partition — the pass is
// one scan either way — so its slot is whole and is cached like the
// rest, exactly as on the cluster path, where workers always fed every
// member.

// batchExec is one launched pass: the execution shared by its member
// flights — their MultiSketch, or the lone member's own sketch. members
// is fixed at launch; live is decremented under Scheduler.mu as members
// are abandoned.
type batchExec struct {
	ctx     context.Context
	cancel  context.CancelFunc
	members []*flight
	live    int
}

// gather parks fresh flights in their dataset's batching window, opening
// it if they are the first there. batchID is the generation-qualified
// dataset the window gathers under — queries share a scan only over the
// same live set; datasetID is the bare ID it runs against. Caller holds
// s.mu.
func (s *Scheduler) gather(batchID, datasetID string, fresh []*flight) {
	for _, fl := range fresh {
		fl.bwin = fl.tr.StartSpan("serve.batch_window")
		if _, open := s.batches[batchID]; !open {
			time.AfterFunc(s.cfg.BatchWindow, func() { s.formBatch(batchID, datasetID) })
		}
		s.batches[batchID] = append(s.batches[batchID], fl)
	}
}

// formBatch closes a window. A flight whose result reached the cache
// while it gathered — published by the pass it waited behind — is
// answered from there; the rest are launched together.
func (s *Scheduler) formBatch(batchID, datasetID string) {
	s.mu.Lock()
	gathered := s.batches[batchID]
	delete(s.batches, batchID)
	s.mu.Unlock()
	var missed []*flight
	for _, fl := range gathered {
		fl.bwin.EndNote(fmt.Sprintf("members=%d", len(gathered)))
		if s.cache != nil {
			pass := &batchExec{members: []*flight{fl}}
			if res, ok := s.cache.Cached(obs.WithTrace(context.Background(), fl.tr), datasetID, fl.sk, pass.fanout(s)); ok {
				s.mu.Lock()
				s.finish(fl, res, nil)
				s.mu.Unlock()
				continue
			}
		}
		missed = append(missed, fl)
	}
	s.launch(datasetID, missed)
}

// launch starts one pass over the flights still wanted: a lone flight's
// sketch as itself — exactly a solo execution — or their MultiSketch.
func (s *Scheduler) launch(datasetID string, flights []*flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	be := &batchExec{}
	var sks []sketch.Sketch
	var tr *obs.Trace // the first traced member's: one scan, one owner
	for _, fl := range flights {
		// Abandoned before launch, and retired by wait: not scanned for.
		if len(fl.subs) == 0 {
			continue
		}
		fl.batch = be
		be.members = append(be.members, fl)
		sks = append(sks, fl.sk)
		if tr == nil {
			tr = fl.tr
		}
	}
	if be.live = len(be.members); be.live == 0 {
		return
	}
	pass := sks[0]
	if be.live > 1 {
		multi, err := sketch.NewMultiSketch(sks...)
		if err != nil {
			// Unreachable (only non-nil, non-multi sketches gather; multis
			// are taken apart on arrival): fail rather than wedge the
			// waiters.
			for _, fl := range be.members {
				s.finish(fl, nil, fmt.Errorf("serve: batch formation: %w", err))
			}
			return
		}
		s.countBatch(be.live)
		pass = multi
	}
	be.ctx, be.cancel = context.WithCancel(obs.WithTrace(context.Background(), tr))
	if s.cfg.Deadline > 0 {
		be.ctx, be.cancel = context.WithTimeout(be.ctx, s.cfg.Deadline)
	}
	go s.runBatch(be, datasetID, pass)
}

// runBatch executes the pass under one admission slot and hands every
// member flight its slot of the outcome.
func (s *Scheduler) runBatch(be *batchExec, datasetID string, pass sketch.Sketch) {
	defer be.cancel()
	res, err := s.execute(be.ctx, datasetID, pass, be.fanout(s))
	slots := be.slots(res)
	if err == nil && slots == nil {
		err = fmt.Errorf("serve: batch execution returned %T for %d members", res, len(be.members))
	}
	if err != nil {
		slots = make([]sketch.Result, len(be.members))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, fl := range be.members {
		s.finish(fl, slots[i], err)
	}
}

// slots splits a pass's summary member-wise (nil when it does not have
// the pass's shape): a lone member's is its own.
func (be *batchExec) slots(res sketch.Result) []sketch.Result {
	if len(be.members) == 1 {
		return []sketch.Result{res}
	}
	if mr, ok := res.(*sketch.MultiResult); ok && len(mr.Members) == len(be.members) {
		return mr.Members
	}
	return nil
}

// fanout builds the pass's partial callback: each partial is split
// member-wise and delivered to that member's current subscribers, whose
// streams so carry only their own sketch's summaries. Partials are
// cumulative: one who joined late starts at the current prefix.
func (be *batchExec) fanout(s *Scheduler) engine.PartialFunc {
	type delivery struct {
		sub *subscriber
		p   engine.Partial
	}
	return func(p engine.Partial) {
		var out []delivery
		slots := be.slots(p.Result)
		s.mu.Lock()
		for i, fl := range be.members[:len(slots)] {
			for sub := range fl.subs {
				out = append(out, delivery{sub, engine.Partial{Result: slots[i], Done: p.Done, Total: p.Total}})
			}
		}
		s.mu.Unlock()
		for _, d := range out {
			d.sub.deliver(d.p)
		}
	}
}
