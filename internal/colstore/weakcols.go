package colstore

import (
	"sync"
	"weak"

	"repro/internal/table"
)

// WeakColumns caches materialized columns by slot under weak pointers:
// as long as any holder — a pinned pool entry, a scan in flight, a
// derived table that captured the column — keeps it reachable,
// re-materializing the slot after a pool eviction returns the identical
// object. A reload then costs nothing: a string column's dictionary is
// not decoded, nor its codes validated (a pass over every row), again,
// and the heap never holds two copies of one column. Under a pool budget
// smaller than the data that is most reloads (derived views hold every
// column of their parent). Once the last holder drops a column, the GC
// reclaims it and the next load builds a fresh — bit-identical — one.
type WeakColumns struct {
	mu    sync.Mutex // guards the slot map only
	slots map[int]*weakSlot
}

// weakSlot serializes loads per slot (identity requires one winner per
// column) while leaving different slots free to materialize — and run
// their CRC pass — concurrently.
type weakSlot struct {
	mu    sync.Mutex
	get   func() table.Column // nil until first load; nil result = collected
	size  int64
	evict func()
}

// weakGetter wraps one concrete column in a weak pointer, converting
// the typed nil of a collected object to an interface nil.
func weakGetter[T any, PT interface {
	*T
	table.Column
}](c PT) func() table.Column {
	p := weak.Make((*T)(c))
	return func() table.Column {
		if v := p.Value(); v != nil {
			return PT(v)
		}
		return nil
	}
}

// weakTo builds the weak getter for the concrete column types the
// store materializes. Other types are not cached (get always misses).
func weakTo(c table.Column) func() table.Column {
	switch cc := c.(type) {
	case *table.IntColumn:
		return weakGetter(cc)
	case *table.DoubleColumn:
		return weakGetter(cc)
	case *table.StringColumn:
		return weakGetter(cc)
	default:
		return func() table.Column { return nil }
	}
}

// Load returns the cached column for slot if it is still alive,
// otherwise runs load and caches the result. Loads of one slot are
// serialized so concurrent callers share one object (the pool's
// single-flight makes that the rare path); loads of different slots
// run concurrently.
func (w *WeakColumns) Load(slot int, load func() (table.Column, int64, func(), error)) (table.Column, int64, func(), error) {
	w.mu.Lock()
	if w.slots == nil {
		w.slots = make(map[int]*weakSlot)
	}
	s, ok := w.slots[slot]
	if !ok {
		s = &weakSlot{}
		w.slots[slot] = s
	}
	w.mu.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.get != nil {
		if col := s.get(); col != nil {
			return col, s.size, s.evict, nil
		}
	}
	col, size, evict, err := load()
	if err != nil {
		return nil, 0, nil, err
	}
	s.get, s.size, s.evict = weakTo(col), size, evict
	return col, size, evict, nil
}
