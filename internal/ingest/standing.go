package ingest

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
)

// StandingQuery is a registered sketch whose running result tracks the
// dataset's sealed prefix incrementally. Registration folds the already
// sealed partitions from sk.Zero() in seal order; each later seal
// summarizes only the new partition and merges it into the running
// result (extend) — never rescanning covered data. Because the fold
// visits the same file-loaded partitions in the same order as a
// from-scratch Summarize+MergeAll, the running result is bit-identical
// to recomputing over the same sealed prefix.
type StandingQuery struct {
	id string
	sk sketch.Sketch
	ds *Dataset

	// Guarded by ds.mu: the dataset's seal path updates these while
	// holding its own lock, so registration, updates, and reads all
	// serialize on it.
	running sketch.Result
	upTo    uint64 // highest seal seq folded in
	err     error  // sticky fold failure; Result reports it
}

// ID returns the query's identifier, unique within its dataset.
func (q *StandingQuery) ID() string { return q.id }

// Sketch returns the registered sketch.
func (q *StandingQuery) Sketch() sketch.Sketch { return q.sk }

// Result returns the current running result and the seal sequence it
// covers. The result is immutable (the Merge contract): callers may
// hold it across later seals.
func (q *StandingQuery) Result() (sketch.Result, uint64, error) {
	q.ds.mu.Lock()
	defer q.ds.mu.Unlock()
	return q.running, q.upTo, q.err
}

// StandingStatus is a snapshot of one standing query for status APIs.
type StandingStatus struct {
	ID     string `json:"id"`
	Sketch string `json:"sketch"`
	UpTo   uint64 `json:"up_to"`
	Failed bool   `json:"failed,omitempty"`
}

// Register installs a standing query for sk, folding every already
// sealed partition into its initial result before returning. From then
// on each durable seal extends the running result with just the new
// partition's summary, under the same lock that ordered the seal.
func (d *Dataset) Register(sk sketch.Sketch) (*StandingQuery, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	q := &StandingQuery{
		id:      fmt.Sprintf("sq-%d", d.nextSID),
		sk:      sk,
		ds:      d,
		running: sk.Zero(),
	}
	for _, rec := range d.seals {
		t, err := d.loadPartition(rec)
		if err != nil {
			return nil, fmt.Errorf("ingest: standing query catch-up at %s: %w", rec.Name, err)
		}
		if q.running, err = q.extend(t); err != nil {
			return nil, fmt.Errorf("ingest: standing query catch-up at %s: %w", rec.Name, err)
		}
		q.upTo = rec.Seq
	}
	d.nextSID++
	d.standing = append(d.standing, q)
	d.m.StandingRegistered.Inc()
	return q, nil
}

// extend folds one more sealed partition into the running result. Merge
// does not mutate its arguments, so a reader still holding the previous
// running result keeps a valid one.
func (q *StandingQuery) extend(t *table.Table) (sketch.Result, error) {
	s, err := q.sk.Summarize(t)
	if err != nil {
		return nil, err
	}
	return q.sk.Merge(q.running, s)
}

// Standing lists the registered standing queries.
func (d *Dataset) Standing() []StandingStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]StandingStatus, len(d.standing))
	for i, q := range d.standing {
		out[i] = StandingStatus{ID: q.id, Sketch: q.sk.Name(), UpTo: q.upTo, Failed: q.err != nil}
	}
	return out
}

// StandingByID resolves a standing query by its identifier.
func (d *Dataset) StandingByID(id string) (*StandingQuery, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, q := range d.standing {
		if q.id == id {
			return q, true
		}
	}
	return nil, false
}

// updateStandingLocked extends every registered query with the
// just-sealed partition. It re-reads the partition file rather than
// using the in-memory frozen table so the summarized bytes are exactly
// what the query path will load — the bit-identity contract. A load or
// fold failure is sticky on the affected query only; the seal itself
// already committed.
func (d *Dataset) updateStandingLocked(ctx context.Context, rec sealRecord) {
	if len(d.standing) == 0 {
		return
	}
	sp := obs.TraceFrom(ctx).StartSpan("ingest.standing_update")
	t, err := d.loadPartition(rec)
	updated := 0
	for _, q := range d.standing {
		if q.err != nil {
			continue
		}
		if err != nil {
			q.err = fmt.Errorf("ingest: standing update at %s: %w", rec.Name, err)
			continue
		}
		next, merr := q.extend(t)
		if merr != nil {
			q.err = fmt.Errorf("ingest: standing update at %s: %w", rec.Name, merr)
			continue
		}
		q.running = next
		q.upTo = rec.Seq
		updated++
	}
	d.m.StandingUpdates.Add(int64(updated))
	sp.EndNote(fmt.Sprintf("%s queries=%d", rec.Name, updated))
}
