package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval of one op. Times are nanoseconds from
// the moment the client wrote the request. Parent indexes the op's own
// span list (-1 for the root); the program's spans are flat, so parents
// are inferred from interval containment.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Note   string `json:"note,omitempty"`
}

// depth ranks span names by how deep in the call stack they are
// recorded. The program's spans carry no parent, and spans of sketches
// that run side by side (a histogram's scan and its CDF's batch window)
// can nest by interval without one having caused the other; a span may
// only be the ancestor of a strictly deeper one.
func depth(name string) int {
	switch name {
	case "client.request", "probe.op":
		return 0
	case "serve.queue", "serve.batch_window", "serve.dedup_join", "serve.exec", "probe.serve":
		return 2
	case "wire.call", "probe.engine":
		return 3
	case "worker.sketch", "probe.dataset", "probe.map":
		return 4
	case "scan.leaf", "merge.tree", "engine.cache_hit", "engine.replay_retry", "probe.acquire", "probe.partial":
		return 5
	case "scan.chunk":
		return 6
	}
	if strings.HasPrefix(name, "http.") {
		return 1
	}
	if strings.HasPrefix(name, "replica.") {
		return 3
	}
	return 7
}

// contains reports whether a can be an ancestor of b: a's interval
// covers b's and a is recorded higher in the stack.
func contains(spans []span, a, b int) bool {
	sa, sb := spans[a], spans[b]
	return sa.Start <= sb.Start && sa.End >= sb.End && depth(sa.Name) < depth(sb.Name)
}

// assignParents sets each span's Parent to its tightest container.
func assignParents(spans []span) {
	for i := range spans {
		spans[i].Parent = -1
		for j := range spans {
			if !contains(spans, j, i) {
				continue
			}
			if p := spans[i].Parent; p < 0 || contains(spans, p, j) {
				spans[i].Parent = j
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover. The interval is cut at every span boundary; each
// piece goes to the spans active in it that contain no other active
// span, split equally when several run side by side (a histogram and
// its CDF, two workers). The self times therefore sum to exactly the
// covered wall-clock, never more.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	var active, leaves []int
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		if hi == lo {
			continue
		}
		active = active[:0]
		for i, s := range spans {
			if s.Start <= lo && s.End >= hi {
				active = append(active, i)
			}
		}
		leaves = leaves[:0]
		for _, i := range active {
			leaf := true
			for _, j := range active {
				if contains(spans, i, j) {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, i)
			}
		}
		for _, i := range leaves {
			self[i] += float64(hi-lo) / float64(len(leaves))
		}
	}
	return self
}

// Layers of the traced table. The program's existing span names fold
// onto module names; clientLayer is the harness's own root span, whose
// self time is what no server span accounts for. The probe.* spans are
// the seam probe's decorators (seam.go), one per public seam.
const (
	clientLayer = "client"
	scanLayer   = "engine+sketch" // IDataSet.Sketch: chunk scheduling, kernels, merge
)

func layerOf(name string) string {
	switch name {
	case "probe.op", "probe.partial":
		return "spreadsheet"
	case "probe.serve":
		return "serve"
	case "probe.engine":
		return "engine"
	case "probe.dataset":
		return scanLayer
	case "probe.map":
		return "expr+table"
	case "probe.acquire":
		return "colstore"
	}
	switch {
	case strings.HasPrefix(name, "client."):
		return clientLayer
	case strings.HasPrefix(name, "http."):
		return "http"
	case strings.HasPrefix(name, "serve."):
		return "serve"
	case name == "wire.call", strings.HasPrefix(name, "replica."):
		return "cluster"
	case name == "engine.cache_hit", name == "engine.replay_retry", name == "merge.tree",
		name == "scan.leaf", name == "scan.chunk", name == "worker.sketch":
		return "engine"
	}
	return "other"
}

// opBreakdown is one traced op folded onto layers, in milliseconds.
type opBreakdown struct {
	class       string // op class, set by the section that ran the op
	wallMs      float64
	layerMs     map[string]float64 // self time per layer
	nameMs      map[string]float64 // self time per span name
	callMs      float64            // Σ wire.call durations
	workerMs    float64            // Σ worker.sketch durations
	callsByNote map[string]float64 // wire.call duration per worker address
	scans       int                // scan.leaf + wire.call spans
	cacheHits   int                // engine.cache_hit annotations
}

func foldOp(spans []span) opBreakdown {
	b := opBreakdown{layerMs: map[string]float64{}, nameMs: map[string]float64{}, callsByNote: map[string]float64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		ms := self[i] / 1e6
		b.layerMs[layerOf(s.Name)] += ms
		b.nameMs[s.Name] += ms
		dur := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "client.request", "probe.op":
			b.wallMs = dur
		case "wire.call":
			b.callMs += dur
			b.callsByNote[s.Note] += dur
			b.scans++
		case "worker.sketch":
			b.workerMs += dur
		case "scan.leaf":
			b.scans++
		case "engine.cache_hit":
			b.cacheHits++
		}
	}
	return b
}

// stragglerRatio is the slowest worker's call time over the mean: the
// slowest part sets the op's time. 1 when one worker or none took part.
func (b opBreakdown) stragglerRatio() float64 {
	if len(b.callsByNote) < 2 {
		return 1
	}
	var max, sum float64
	for _, ms := range b.callsByNote {
		sum += ms
		if ms > max {
			max = ms
		}
	}
	return ratio(max, sum/float64(len(b.callsByNote)))
}

// traceRecord mirrors obs.TraceRecord as served by /api/trace/<id>.
type traceRecord struct {
	ID    string    `json:"id"`
	Start time.Time `json:"start"`
	Spans []struct {
		Name  string `json:"name"`
		Start int64  `json:"start_ns"`
		Dur   int64  `json:"dur_ns"`
		Note  string `json:"note"`
	} `json:"spans"`
}

// opSpans assembles one op's span list: the harness's client spans plus
// the server's spans rebased onto the client's clock (both processes
// read the same host clock) and clipped to the request interval.
func opSpans(op int, sent time.Time, firstLine, lastByte time.Duration, rec traceRecord) []span {
	wall := lastByte.Nanoseconds()
	// first_line and last_byte are zero-length marks inside the request
	// span, like the program's own annotations: they take no self time.
	spans := []span{
		{Op: op, Name: "client.request", Start: 0, End: wall},
		{Op: op, Name: "client.first_line", Start: firstLine.Nanoseconds(), End: firstLine.Nanoseconds()},
		{Op: op, Name: "client.last_byte", Start: wall, End: wall},
	}
	base := rec.Start.Sub(sent.Round(0)).Nanoseconds()
	clip := func(t int64) int64 { return min(max(t, 0), wall) }
	for _, s := range rec.Spans {
		spans = append(spans, span{Op: op, Name: s.Name, Note: s.Note,
			Start: clip(base + s.Start), End: clip(base + s.Start + s.Dur)})
	}
	assignParents(spans)
	return spans
}

// traceLog keeps every span of the traced run in memory until the end.
type traceLog struct {
	mu    sync.Mutex
	spans []span
}

func (t *traceLog) add(spans []span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

func (t *traceLog) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
