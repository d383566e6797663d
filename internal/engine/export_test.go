package engine

import "repro/internal/sketch"

// Get returns the cached result for key, if any, counting a hit or a
// miss as a query's lookup does.
func (c *Cache) Get(key string) (sketch.Result, bool) {
	res, ok := c.lookupAll([]string{key}, true)
	if !ok {
		return nil, false
	}
	return res[0], true
}

// Log returns a copy of the redo log.
func (r *Root) Log() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.log...)
}
