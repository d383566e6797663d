package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span taxonomy (documented in ROADMAP.md; stitched worker spans reuse
// the same names):
//
//	http.<endpoint>      whole HTTP request (ingress)
//	serve.queue          admission wait (slot or queue)
//	serve.exec           execution while holding an admission slot
//	serve.batch_window   scan-batching window wait
//	serve.dedup_join     annotation: joined an identical in-flight query
//	engine.cache_hit     annotation: served from the computation cache
//	engine.replay_retry  annotation: dataset rebuilt mid-query and retried
//	scan.leaf            one leaf pool drain (all partitions, all workers)
//	scan.chunk           one sampled partition fold (1 in chunkSampleEvery)
//	merge.tree           merge chain from the last partition to the tree root
//	wire.call            one root→worker sketch RPC (note: worker addr)
//	worker.sketch        worker-side execution (shipped back, stitched)
//	replica.failover     annotation: range re-dispatched after a failure
//	replica.group_lost   annotation: every replica of a range failed
//
// maxSpansPerTrace bounds a trace's span list; past it spans are
// counted as dropped instead of recorded, so a pathological query
// cannot balloon the trace ring.
const maxSpansPerTrace = 512

// Span is one recorded stage of a query: an offset from the trace
// start plus a duration (zero for annotations), both in nanoseconds on
// the wire and in JSON.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	Note  string        `json:"note,omitempty"`
}

// Trace collects the spans of one query. All methods are safe for
// concurrent use and nil-safe: a nil *Trace records nothing and costs
// one nil check, which is what makes instrumented hot paths free when
// tracing is off.
type Trace struct {
	id     string
	start  time.Time
	tracer *Tracer // nil for detached traces (worker side)

	mu      sync.Mutex
	spans   []Span
	dropped int
	dataset string
	sketch  string
	errmsg  string
	done    bool
}

// MintID returns a fresh 16-hex-char trace ID.
func MintID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero ID is
		// still a usable trace.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// NewTrace builds a detached trace (not bound to a Tracer ring) — the
// worker side uses this to record spans it ships back to the root. An
// empty id mints one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = MintID()
	}
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SpanHandle is an open span; End (or EndNote) records it. The zero
// value — returned by StartSpan on a nil trace — is a no-op.
type SpanHandle struct {
	t     *Trace
	name  string
	start time.Duration
}

// StartSpan opens a span at the current offset.
func (t *Trace) StartSpan(name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, start: time.Since(t.start)}
}

// Offset returns the span's start offset from the trace start.
func (s SpanHandle) Offset() time.Duration { return s.start }

// End records the span.
func (s SpanHandle) End() { s.EndNote("") }

// EndNote records the span with a detail note.
func (s SpanHandle) EndNote(note string) {
	if s.t == nil {
		return
	}
	s.t.add(Span{Name: s.name, Start: s.start, Dur: time.Since(s.t.start) - s.start, Note: note})
}

// Annotate records an instantaneous event span.
func (t *Trace) Annotate(name, note string) {
	if t == nil {
		return
	}
	t.add(Span{Name: name, Start: time.Since(t.start), Note: note})
}

func (t *Trace) add(sp Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sp)
}

// Stitch appends remote spans (offsets relative to the remote trace
// start) shifted by base — the local offset at which the remote call
// began — so worker-side spans nest under the wire.call span that
// carried them.
func (t *Trace) Stitch(base time.Duration, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range spans {
		if len(t.spans) >= maxSpansPerTrace {
			t.dropped++
			continue
		}
		sp.Start += base
		t.spans = append(t.spans, sp)
	}
}

// SetQuery records the reproduction info for the slow-query log: the
// dataset ID and the sketch's Name() (which encodes kind and
// parameters, e.g. bucket spec — enough to replay the query locally).
func (t *Trace) SetQuery(dataset, sketchName string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.dataset == "" {
		t.dataset, t.sketch = dataset, sketchName
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans (for shipping a worker
// trace back over the wire).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// TraceRecord is a finished trace, queryable from the ring.
type TraceRecord struct {
	ID      string        `json:"id"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Dataset string        `json:"dataset,omitempty"`
	Sketch  string        `json:"sketch,omitempty"`
	Err     string        `json:"err,omitempty"`
	Dropped int           `json:"dropped_spans,omitempty"`
	Spans   []Span        `json:"spans"`
}

// Finish closes the trace: its record lands in the owning Tracer's
// ring and, past the slow-query threshold, one structured log line is
// emitted with the full stage breakdown. Detached traces (no Tracer)
// just stop accepting spans. Finish is idempotent.
func (t *Trace) Finish(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	if err != nil {
		t.errmsg = err.Error()
	}
	rec := TraceRecord{
		ID: t.id, Start: t.start, Dur: time.Since(t.start),
		Dataset: t.dataset, Sketch: t.sketch, Err: t.errmsg,
		Dropped: t.dropped, Spans: append([]Span(nil), t.spans...),
	}
	tracer := t.tracer
	t.mu.Unlock()
	if tracer != nil {
		tracer.record(rec)
	}
}

// Tracer owns the bounded ring of finished traces and the slow-query
// log. One Tracer serves a whole process (the hillview root).
type Tracer struct {
	slowNS   atomic.Int64
	logf     func(format string, args ...any)
	started  Counter
	finished Counter
	slow     Counter

	mu   sync.Mutex
	ring []TraceRecord
	next int
	byID map[string]int
}

// DefaultTraceRing bounds the finished-trace ring.
const DefaultTraceRing = 256

// NewTracer builds a tracer with a ring of capacity records (0 means
// DefaultTraceRing), a slow-query threshold (0 disables the log), and
// a log function (nil disables the log).
func NewTracer(capacity int, slow time.Duration, logf func(string, ...any)) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	t := &Tracer{
		logf: logf,
		ring: make([]TraceRecord, 0, capacity),
		byID: make(map[string]int),
	}
	t.slowNS.Store(slow.Nanoseconds())
	return t
}

// SetSlowQuery adjusts the slow-query threshold (0 disables).
func (tr *Tracer) SetSlowQuery(d time.Duration) { tr.slowNS.Store(d.Nanoseconds()) }

// Start opens a trace bound to this tracer. An empty id mints one.
func (tr *Tracer) Start(id string) *Trace {
	t := NewTrace(id)
	t.tracer = tr
	tr.started.Inc()
	return t
}

// Started returns the number of traces started.
func (tr *Tracer) Started() int64 { return tr.started.Load() }

// Finished returns the number of traces finished into the ring.
func (tr *Tracer) Finished() int64 { return tr.finished.Load() }

// SlowQueries returns the number of slow-query log lines emitted.
func (tr *Tracer) SlowQueries() int64 { return tr.slow.Load() }

// RingLen returns the number of finished traces currently held.
func (tr *Tracer) RingLen() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.ring)
}

// Get returns the finished trace with the given ID, if still in the
// ring.
func (tr *Tracer) Get(id string) (TraceRecord, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	i, ok := tr.byID[id]
	if !ok {
		return TraceRecord{}, false
	}
	return tr.ring[i], true
}

func (tr *Tracer) record(rec TraceRecord) {
	tr.finished.Inc()
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.byID[rec.ID] = len(tr.ring)
		tr.ring = append(tr.ring, rec)
	} else {
		old := tr.ring[tr.next]
		if tr.byID[old.ID] == tr.next {
			delete(tr.byID, old.ID)
		}
		tr.ring[tr.next] = rec
		tr.byID[rec.ID] = tr.next
		tr.next = (tr.next + 1) % cap(tr.ring)
	}
	tr.mu.Unlock()
	if slow := tr.slowNS.Load(); slow > 0 && rec.Dur.Nanoseconds() >= slow && tr.logf != nil {
		tr.slow.Inc()
		tr.logf("%s", slowQueryLine(rec))
	}
}

// slowQueryLine formats one structured (logfmt-style) line for a slow
// query: identity, duration, the reproduction info (dataset + sketch
// Name(), which carries kind and bucket parameters), and the stage
// breakdown.
func slowQueryLine(rec TraceRecord) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "slow-query trace=%s dur=%s dataset=%q sketch=%q",
		rec.ID, rec.Dur, rec.Dataset, rec.Sketch)
	if rec.Err != "" {
		fmt.Fprintf(&sb, " err=%q", rec.Err)
	}
	sb.WriteString(" stages=")
	for i, sp := range rec.Spans {
		if i > 0 {
			sb.WriteByte(',')
		}
		if sp.Dur > 0 {
			fmt.Fprintf(&sb, "%s@%s+%s", sp.Name, sp.Start, sp.Dur)
		} else {
			fmt.Fprintf(&sb, "%s@%s", sp.Name, sp.Start)
		}
	}
	if rec.Dropped > 0 {
		fmt.Fprintf(&sb, " dropped_spans=%d", rec.Dropped)
	}
	return sb.String()
}

// traceKey is the context key carrying the active *Trace.
type traceKey struct{}

// WithTrace returns ctx carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil. Every Trace
// method is nil-safe, so callers never branch.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
