package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use, so it embeds directly in structs that used to carry
// a bare int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready.
type Gauge struct{ v atomic.Int64 }

// Add adjusts the gauge by n (use for up/down tracking).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket geometry: values land in log-linear buckets — each
// power of two is split into 2^histSubBits linear sub-buckets, so the
// relative quantile error is bounded by 1/2^histSubBits (12.5%) with a
// fixed 4 KB footprint and no per-observation allocation. Values are
// durations in nanoseconds by convention; Prometheus rendering divides
// to seconds.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits
	// histNumBuckets covers every non-negative int64: the top exponent
	// is 62, so indexes run to (62-histSubBits+1)<<histSubBits - 1.
	histNumBuckets = (63 - histSubBits + 1) << histSubBits
)

// Histogram is a fixed-size log-linear histogram of int64 values
// (nanoseconds by convention). The zero value is ready; Observe is
// lock-free (one atomic add per bucket plus count and sum).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histNumBuckets]atomic.Int64
}

// histBucketIndex maps a value to its bucket.
func histBucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	sub := (u >> (uint(exp) - histSubBits)) & (histSubCount - 1)
	return int((uint64(exp-histSubBits)+1)<<histSubBits | sub)
}

// histBucketUpper returns the exclusive upper bound of bucket i.
func histBucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i) + 1
	}
	exp := uint(i>>histSubBits) - 1 + histSubBits
	sub := uint64(i & (histSubCount - 1))
	u := uint64(1)<<exp + (sub+1)<<(exp-histSubBits)
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[histBucketIndex(v)].Add(1)
}

// ObserveSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of
// the observed values, within the bucket geometry's 12.5% relative
// error. Returns 0 when nothing has been observed.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return histBucketUpper(i)
		}
	}
	return histBucketUpper(histNumBuckets - 1)
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

// metricEntry is one registered metric: either an owned instrument or
// a read-through function over telemetry that lives elsewhere (the
// re-registration path for pre-existing stats structs).
type metricEntry struct {
	name, help string
	kind       metricKind
	hist       *Histogram
	fn         func() int64
}

// Group is a named set of metrics belonging to one subsystem. Name is
// the Prometheus subsystem (snake_case); Section is the /api/status
// JSON key that surfaces the same telemetry.
type Group struct {
	Name    string
	Section string

	mu      sync.Mutex
	metrics []*metricEntry
}

func (g *Group) add(e *metricEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, old := range g.metrics {
		if old.name == e.name {
			*old = *e // idempotent re-registration (tests rebuild servers)
			return
		}
	}
	g.metrics = append(g.metrics, e)
}

// Counter registers and returns an owned counter.
func (g *Group) Counter(name, help string) *Counter {
	c := &Counter{}
	g.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc registers a counter whose value is read from fn — the
// re-registration hook for counters that live in existing stats
// structs (scheduler, wire, cluster, pool).
func (g *Group) CounterFunc(name, help string, fn func() int64) {
	g.add(&metricEntry{name: name, help: help, kind: kindCounter, fn: fn})
}

// GaugeFunc registers a gauge read from fn.
func (g *Group) GaugeFunc(name, help string, fn func() int64) {
	g.add(&metricEntry{name: name, help: help, kind: kindGauge, fn: fn})
}

// Histogram registers and returns an owned histogram. By convention it
// records nanoseconds; the rendered metric is named <name>_seconds.
func (g *Group) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	g.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram registers an externally owned histogram (one that
// a subsystem embeds and feeds on its own hot path).
func (g *Group) RegisterHistogram(name, help string, h *Histogram) {
	g.add(&metricEntry{name: name, help: help, kind: kindHistogram, hist: h})
}

// Registry holds metric groups and renders them as Prometheus text.
type Registry struct {
	mu     sync.Mutex
	groups []*Group
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Group returns the group with the given name, creating it (with the
// given status section) on first use.
func (r *Registry) Group(name, section string) *Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.groups {
		if g.Name == name {
			return g
		}
	}
	g := &Group{Name: name, Section: section}
	r.groups = append(r.groups, g)
	return g
}

// Groups returns the registered groups, sorted by name.
func (r *Registry) Groups() []*Group {
	r.mu.Lock()
	out := append([]*Group(nil), r.groups...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4). Metric names follow
// hillview_<group>_<name>, counters get a _total suffix, histograms a
// _seconds suffix with cumulative le buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, g := range r.Groups() {
		g.mu.Lock()
		metrics := append([]*metricEntry(nil), g.metrics...)
		g.mu.Unlock()
		for _, m := range metrics {
			if err := writeMetric(w, g.Name, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetric(w io.Writer, group string, m *metricEntry) error {
	full := "hillview_" + group + "_" + m.name
	switch m.kind {
	case kindCounter:
		full += "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			full, m.help, full, full, m.fn()); err != nil {
			return err
		}
	case kindGauge:
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			full, m.help, full, full, m.fn()); err != nil {
			return err
		}
	case kindHistogram:
		full += "_seconds"
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			full, m.help, full); err != nil {
			return err
		}
		var cum int64
		for i := range m.hist.buckets {
			n := m.hist.buckets[i].Load()
			if n == 0 {
				continue // sparse rendering: only occupied buckets ship
			}
			cum += n
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n",
				full, float64(histBucketUpper(i))/1e9, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			full, m.hist.Count(), full, float64(m.hist.Sum())/1e9, full, m.hist.Count()); err != nil {
			return err
		}
	}
	return nil
}
