package engine

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/sketch"
)

// Cache is the computation cache (paper §5.4): it stores results of
// deterministic sketches, keyed by (dataset ID, sketch cache key).
// Results are summaries, hence small, so "a large number of results can
// be cached"; the cache is still bounded with LRU eviction as a safety
// valve.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element
	order   *list.List // front = most recent
	hits    obs.Counter
	misses  obs.Counter
}

type cacheEntry struct {
	key string
	res sketch.Result
}

// DefaultCacheSize bounds the computation cache entry count.
const DefaultCacheSize = 4096

// NewCache returns a cache bounded to max entries (0 means
// DefaultCacheSize).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheSize
	}
	return &Cache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Key builds the cache key for a sketch on a dataset; ok is false when
// the sketch is not cacheable (randomized or data-dependent sketches).
func Key(datasetID string, sk sketch.Sketch) (string, bool) {
	c, ok := sk.(sketch.Cacheable)
	if !ok {
		return "", false
	}
	return datasetID + "|" + c.CacheKey(), true
}

// QualifyDataset renders the generation-qualified dataset identity used
// in cache and dedup keys. Generation 0 (static datasets, which never
// advance) keeps the bare ID, so every pre-existing key and caller is
// unchanged; growing datasets embed the generation behind a "\x00"
// separator — a byte no dataset ID contains — so results computed
// against different live sets can never collide, while
// InvalidateDataset still matches every generation of the ID.
func QualifyDataset(datasetID string, gen uint64) string {
	if gen == 0 {
		return datasetID
	}
	return datasetID + "\x00" + strconv.FormatUint(gen, 10)
}

// KeyAt is Key for a dataset at a specific generation.
func KeyAt(datasetID string, gen uint64, sk sketch.Sketch) (string, bool) {
	return Key(QualifyDataset(datasetID, gen), sk)
}

// lookupAll looks a group of keys up as a unit, for an answer that is
// only useful whole (one sketch, or every member of a scan-sharing
// pass): when every key is present each counts a hit; otherwise no
// entry is touched and, when countMiss is set, each absent key counts a
// miss — the present ones were not used, so they count nothing.
// countMiss false is for a probe whose miss is followed by the counted
// lookup of the real run. An empty key (a member that is not cacheable)
// is absent and uncounted.
func (c *Cache) lookupAll(keys []string, countMiss bool) ([]sketch.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var absent, uncacheable int64
	for _, key := range keys {
		if key == "" {
			uncacheable++
		} else if _, ok := c.entries[key]; !ok {
			absent++
		}
	}
	if absent+uncacheable > 0 {
		if countMiss {
			c.misses.Add(absent)
		}
		return nil, false
	}
	out := make([]sketch.Result, len(keys))
	for i, key := range keys {
		el := c.entries[key]
		c.order.MoveToFront(el)
		out[i] = el.Value.(*cacheEntry).res
	}
	c.hits.Add(int64(len(keys)))
	return out, true
}

// Put stores a result, evicting the least-recently-used entry when full.
func (c *Cache) Put(key string, res sketch.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for len(c.entries) > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// InvalidateDataset drops every entry belonging to a dataset — all
// generations of it (used when a dataset is rebuilt by replay, or its
// generation advances after an ingest seal; results would still be
// valid for deterministic sketches at their recorded generation, but
// dropping is the conservative choice).
func (c *Cache) InvalidateDataset(datasetID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bare := datasetID + "|"
	qual := datasetID + "\x00"
	for key, el := range c.entries {
		if strings.HasPrefix(key, bare) || strings.HasPrefix(key, qual) {
			c.order.Remove(el)
			delete(c.entries, key)
		}
	}
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// HitCounter exposes the hit counter for obs registration.
func (c *Cache) HitCounter() *obs.Counter { return &c.hits }

// MissCounter exposes the miss counter for obs registration.
func (c *Cache) MissCounter() *obs.Counter { return &c.misses }

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
