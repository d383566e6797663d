package colstore

import (
	"container/list"
	"sync"

	"repro/internal/table"
)

// ColKey identifies one column of one open file in the pool. It names
// the handle, not the path: a path rewritten between two opens is two
// files, so no handle is ever served a column another one loaded.
type ColKey struct {
	File   *File
	Column int // index in the file's schema
}

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	Hits      int64 // Acquire found the column resident
	Misses    int64 // Acquire ran the loader
	Evictions int64 // columns evicted to fit the budget (or EvictAll)
	Resident  int64 // bytes currently charged
	Budget    int64 // configured budget (0 = unlimited)
	Columns   int   // resident columns
	Pinned    int   // columns with at least one active pin
}

// entry is one materialized column. pins counts concurrent holders;
// only unpinned entries are evictable. ready closes when loading
// finishes (successfully or not), serializing concurrent loads of the
// same column behind one loader call.
type entry struct {
	key   ColKey
	col   table.Column
	bytes int64
	evict func() // optional OS-page release hook
	pins  int
	ready chan struct{}
	elem  *list.Element
}

// Pool is the budgeted buffer pool of the column store: it
// materializes columns lazily on first Acquire, keeps them resident
// for reuse, pins them while callers hold them, and evicts
// least-recently-used unpinned columns once resident bytes exceed the
// budget. Pinned bytes may transiently exceed the budget — a scan's
// working set is never evicted under it — and shrink back as pins
// release. Eviction is transparent: the loader re-materializes a
// bit-identical column from the immutable source on the next touch,
// which is the column-level instance of the engine's soft-state
// contract (paper §5.7).
type Pool struct {
	mu       sync.Mutex
	budget   int64
	cols     map[ColKey]*entry
	lru      *list.List // front = most recently used; entries in load order
	hits     int64
	misses   int64
	evicted  int64
	resident int64
}

// NewPool builds a pool with the given byte budget (0 or negative =
// unlimited: columns stay resident until EvictAll).
func NewPool(budget int64) *Pool {
	if budget < 0 {
		budget = 0
	}
	return &Pool{budget: budget, cols: make(map[ColKey]*entry), lru: list.New()}
}

// Loader materializes one column, returning the column, its resident
// byte size, and an optional evict hook invoked when the pool drops the
// column (mapped columns release their OS pages there). The load must
// be deterministic: re-running it after an eviction must produce a
// bit-identical column.
type Loader func() (table.Column, int64, func(), error)

// Acquire returns the column for key, materializing it with load on a
// miss, and pins it until the returned release function is called
// (exactly once). Concurrent Acquires of the same key share one load.
func (p *Pool) Acquire(key ColKey, load Loader) (table.Column, func(), error) {
	for {
		p.mu.Lock()
		if e, ok := p.cols[key]; ok {
			select {
			case <-e.ready:
				// Resident: a failed load is removed from the map before
				// its ready channel closes (under this mutex), so a
				// map-resident ready entry always holds a column.
				e.pins++
				p.lru.MoveToFront(e.elem)
				p.hits++
				p.mu.Unlock()
				return e.col, p.releaseFunc(e), nil
			default:
				// Load in flight: wait outside the lock, then re-check —
				// if that load failed its entry is gone and this caller
				// retries with its own loader.
				p.mu.Unlock()
				<-e.ready
				continue
			}
		}
		e := &entry{key: key, ready: make(chan struct{})}
		p.cols[key] = e
		p.misses++
		p.mu.Unlock()

		col, size, evict, err := load()
		p.mu.Lock()
		if err != nil {
			delete(p.cols, key)
			close(e.ready)
			p.mu.Unlock()
			return nil, nil, err
		}
		e.col, e.bytes, e.evict = col, size, evict
		e.pins = 1
		e.elem = p.lru.PushFront(e)
		p.resident += size
		close(e.ready)
		p.evictLocked()
		p.mu.Unlock()
		return col, p.releaseFunc(e), nil
	}
}

func (p *Pool) releaseFunc(e *entry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			e.pins--
			if e.pins == 0 {
				p.evictLocked()
			}
			p.mu.Unlock()
		})
	}
}

// evictLocked drops least-recently-used unpinned columns until the
// budget is met. Callers hold p.mu.
func (p *Pool) evictLocked() {
	if p.budget <= 0 {
		return
	}
	for el := p.lru.Back(); el != nil && p.resident > p.budget; {
		e := el.Value.(*entry)
		prev := el.Prev()
		if e.pins == 0 {
			p.dropLocked(e)
		}
		el = prev
	}
}

// dropLocked removes one resident entry. Callers hold p.mu.
func (p *Pool) dropLocked(e *entry) {
	p.lru.Remove(e.elem)
	delete(p.cols, e.key)
	p.resident -= e.bytes
	p.evicted++
	if e.evict != nil {
		e.evict()
	}
}

// EvictAll drops every unpinned column regardless of budget and
// returns how many were dropped. Tests use it to force the
// evict-then-reload path; a server can use it as a memory-pressure
// valve.
func (p *Pool) EvictAll() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for el := p.lru.Back(); el != nil; {
		e := el.Value.(*entry)
		prev := el.Prev()
		if e.pins == 0 {
			p.dropLocked(e)
			n++
		}
		el = prev
	}
	return n
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := PoolStats{
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evicted,
		Resident:  p.resident,
		Budget:    p.budget,
		Columns:   len(p.cols),
	}
	for _, e := range p.cols {
		if e.pins > 0 {
			s.Pinned++
		}
	}
	return s
}
