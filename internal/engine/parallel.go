package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sketch"
)

// ParallelDataSet is an aggregation node: it fans a sketch out to child
// datasets (local or remote) concurrently and folds their partial-result
// streams into one monotone stream (paper §5.3: "nodes periodically
// propagate partially merged results of the vizketch without waiting for
// all children to respond").
type ParallelDataSet struct {
	id       string
	children []IDataSet
	cfg      Config
}

// NewParallel builds an aggregation node over children.
func NewParallel(id string, children []IDataSet, cfg Config) *ParallelDataSet {
	return &ParallelDataSet{id: id, children: children, cfg: cfg}
}

// ID implements IDataSet.
func (d *ParallelDataSet) ID() string { return d.id }

// Children returns the child datasets.
func (d *ParallelDataSet) Children() []IDataSet { return d.children }

// NumLeaves implements IDataSet.
func (d *ParallelDataSet) NumLeaves() int {
	n := 0
	for _, c := range d.children {
		n += c.NumLeaves()
	}
	return n
}

// Sketch implements IDataSet. Each child's stream is cumulative for that
// child's subtree, so the aggregation node keeps the latest summary per
// child and re-merges across children on each (throttled) update.
func (d *ParallelDataSet) Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error) {
	n := len(d.children)
	var (
		mu     sync.Mutex
		latest = make([]sketch.Result, n)
		dones  = make([]int, n)
		wg     sync.WaitGroup
		errs   = make([]error, n)
	)
	total := d.NumLeaves()
	th := newThrottle(d.cfg.window())

	// remerge folds the latest per-child summaries; callers hold mu.
	remerge := func() (sketch.Result, int, error) {
		acc := sk.Zero()
		done := 0
		for i := range d.children {
			if latest[i] == nil {
				continue
			}
			m, err := sk.Merge(acc, latest[i])
			if err != nil {
				return nil, 0, err
			}
			acc = m
			done += dones[i]
		}
		return acc, done, nil
	}

	for i := range d.children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A panic below this child becomes this query's error, not a
			// process crash (mirrors the leaf pool's recovery).
			defer func() {
				if pe := CapturePanic(recover()); pe != nil {
					mu.Lock()
					if errs[i] == nil {
						errs[i] = pe
					}
					mu.Unlock()
				}
			}()
			child := d.children[i]
			// Only subscribe to child partials when our own caller wants
			// them: remote children suppress partial streaming entirely
			// for a nil callback, saving the wire bytes.
			var childCb PartialFunc
			if onPartial != nil {
				childCb = func(p Partial) {
					mu.Lock()
					defer mu.Unlock()
					latest[i] = p.Result
					dones[i] = p.Done
					if th.allow() {
						if merged, done, err := remerge(); err == nil {
							onPartial(Partial{Result: merged, Done: done, Total: total})
						}
					}
				}
			}
			res, err := child.Sketch(ctx, sk, childCb)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[i] = err
				return
			}
			latest[i] = res
			dones[i] = child.NumLeaves()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	final, done, err := remerge()
	if err != nil {
		return nil, err
	}
	emit(onPartial, Partial{Result: final, Done: done, Total: total})
	return final, nil
}

// Map implements IDataSet: the op fans out to every child; the derived
// dataset preserves the tree shape.
func (d *ParallelDataSet) Map(op MapOp, newID string) (IDataSet, error) {
	out := make([]IDataSet, len(d.children))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := range d.children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := d.children[i].Map(op, fmt.Sprintf("%s@%d", newID, i))
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
				return
			}
			out[i] = c
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &ParallelDataSet{id: newID, children: out, cfg: d.cfg}, nil
}
