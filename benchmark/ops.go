package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// Op classes: each is the population of one end-to-end latency metric
// (append and standing feed the ingest layer's metrics).
const (
	classHist     = "hist"   // histograms that must scan
	classCached   = "cached" // verbatim repeat of a completed exact histogram
	classHeatmap  = "heatmap"
	classHH       = "heavyhitters"
	classFilter   = "filter"
	classTable    = "table"
	classAppend   = "append"
	classStanding = "standing"
)

// op is one request of a workload's op list.
type op struct {
	class string
	path  string // URL path and query
	body  []byte // POST body (append); nil = GET

	view       string // view the op reads; "" = the newest derived view, resolved when sent
	exact      bool   // histogram: counts + missing must equal the view's rows
	streaming  bool   // NDJSON response: first-line time is meaningful
	rememberAs bool   // histogram: a later cached op may repeat it
	name       string // filter: the derived view's name
	expr       string // filter: the predicate, kept for cross-workload comparison
	order      string // table: the requested sort spec
	rows       int    // append: batch size
}

// query renders a path with URL-encoded parameters, kept in the given
// order so the same op is the same request byte for byte.
func query(path string, kv ...string) string {
	var b strings.Builder
	b.WriteString(path)
	for i := 0; i+1 < len(kv); i += 2 {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(url.QueryEscape(kv[i+1]))
	}
	return b.String()
}

// runState is what validation needs to remember across ops: view sizes,
// answers already seen, and the ingest acknowledgements.
type runState struct {
	mu       sync.Mutex
	viewRows map[string]int64  // rows per view; growing views are absent
	growing  map[string]bool   // ingest views: row count is a moving target
	numeric  map[string]bool   // columns that order numerically in table pages
	newest   string            // most recently derived view
	finals   map[string][]byte // exact histogram path → final NDJSON line
	answers  map[string]string // op identity → answer digest, for cross-workload comparison
	appended int64             // rows acknowledged by append
	openRows int64             // open-segment rows per the latest acknowledgement
	sealAcks []float64         // latencies of appends that triggered a seal (ms)
	rootView string            // the loaded view; answers on it are comparable across workloads
	primeCol string            // numeric column of the set-up's priming histogram
}

func newRunState(rootView, primeCol string, numericCols []string) *runState {
	st := &runState{
		viewRows: map[string]int64{}, growing: map[string]bool{}, numeric: map[string]bool{},
		finals: map[string][]byte{}, answers: map[string]string{}, rootView: rootView, primeCol: primeCol,
	}
	for _, c := range numericCols {
		st.numeric[c] = true
	}
	return st
}

// bucketSpec is the part of sketch.BucketSpec's JSON the checks read.
type bucketSpec struct {
	Count int
}

type histLine struct {
	Partial *bool      `json:"partial"`
	Done    int        `json:"done"`
	Counts  []int64    `json:"counts"`
	Missing int64      `json:"missing"`
	Rate    float64    `json:"rate"`
	Buckets bucketSpec `json:"buckets"`
}

// validate checks one response. Any error counts toward error_rate.
func (st *runState) validate(o *op, status int, body []byte, latencyMs float64) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d: %s", o.path, status, firstBytes(body, 200))
	}
	switch o.class {
	case classHist, classCached:
		return st.checkHistogram(o, body)
	case classHeatmap:
		return checkHeatmap(body)
	case classHH:
		return checkHeavyHitters(body)
	case classFilter:
		return st.checkFilter(o, body)
	case classTable:
		return st.checkTable(o, body)
	case classAppend:
		return st.checkAppend(o, body, latencyMs)
	case classStanding:
		var r struct {
			ID   string `json:"id"`
			UpTo *int64 `json:"upTo"`
		}
		if err := json.Unmarshal(body, &r); err != nil || r.ID == "" || r.UpTo == nil {
			return fmt.Errorf("standing get: bad body %s (%v)", firstBytes(body, 200), err)
		}
		return nil
	}
	return fmt.Errorf("unknown op class %q", o.class)
}

func firstBytes(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

// checkHistogram: every line parses, partial progress never goes back,
// the stream ends with exactly one partial:false line, and an exact
// histogram accounts for every row of its view.
func (st *runState) checkHistogram(o *op, body []byte) error {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	lastDone := 0
	var final histLine
	for i, raw := range lines {
		var l histLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("%s: line %d: %v", o.path, i, err)
		}
		if l.Partial == nil {
			return fmt.Errorf("%s: line %d has no partial field", o.path, i)
		}
		last := i == len(lines)-1
		if *l.Partial == last {
			return fmt.Errorf("%s: line %d of %d has partial=%v", o.path, i, len(lines), *l.Partial)
		}
		if !last {
			if l.Done < lastDone {
				return fmt.Errorf("%s: partial done went back from %d to %d", o.path, lastDone, l.Done)
			}
			lastDone = l.Done
		}
		final = l
	}
	if len(final.Counts) == 0 || len(final.Counts) != final.Buckets.Count {
		return fmt.Errorf("%s: %d counts for %d buckets", o.path, len(final.Counts), final.Buckets.Count)
	}
	if final.Rate <= 0 || final.Rate > 1 {
		return fmt.Errorf("%s: sample rate %v", o.path, final.Rate)
	}
	finalLine := lines[len(lines)-1]
	st.mu.Lock()
	defer st.mu.Unlock()
	if o.exact {
		sum := final.Missing
		for _, c := range final.Counts {
			sum += c
		}
		if st.growing[o.view] {
			// The view grows under the query; the answer must cover a
			// prefix no longer than what has been acknowledged.
			if sum <= 0 || sum > st.appended {
				return fmt.Errorf("%s: counts+missing = %d, outside (0, %d appended]", o.path, sum, st.appended)
			}
		} else if rows := st.viewRows[o.view]; sum != rows {
			return fmt.Errorf("%s: counts+missing = %d, view %s has %d rows", o.path, sum, o.view, rows)
		}
	}
	if o.class == classCached && !st.growing[o.view] {
		if want := st.finals[o.path]; !bytes.Equal(want, finalLine) {
			return fmt.Errorf("%s: cached answer differs from the first answer", o.path)
		}
	}
	if o.rememberAs {
		st.finals[o.path] = append([]byte(nil), finalLine...)
		if o.view == st.rootView && !st.growing[o.view] {
			st.answers[o.path] = digest(finalLine)
		}
	}
	return nil
}

func checkHeatmap(body []byte) error {
	var r struct {
		X, Y   bucketSpec
		Counts []int64 `json:"counts"`
		Rate   float64 `json:"rate"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("heatmap: %v", err)
	}
	if r.X.Count <= 0 || r.Y.Count <= 0 || len(r.Counts) != r.X.Count*r.Y.Count {
		return fmt.Errorf("heatmap: %d counts for %d×%d cells", len(r.Counts), r.X.Count, r.Y.Count)
	}
	if r.Rate <= 0 || r.Rate > 1 {
		return fmt.Errorf("heatmap: sample rate %v", r.Rate)
	}
	return nil
}

// checkHeavyHitters: sorted non-increasing and non-empty. Counts are not
// compared across runs: Misra–Gries is schedule-dependent (ROADMAP item 1).
func checkHeavyHitters(body []byte) error {
	var items []struct {
		Value string `json:"value"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(body, &items); err != nil {
		return fmt.Errorf("heavyhitters: %v", err)
	}
	if len(items) == 0 {
		return fmt.Errorf("heavyhitters: no items")
	}
	for i := 1; i < len(items); i++ {
		if items[i].Count > items[i-1].Count {
			return fmt.Errorf("heavyhitters: item %d count %d > item %d count %d", i, items[i].Count, i-1, items[i-1].Count)
		}
	}
	return nil
}

func (st *runState) checkFilter(o *op, body []byte) error {
	var r struct {
		View string `json:"view"`
		Rows int64  `json:"rows"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.View != o.name {
		return fmt.Errorf("%s: bad body %s (%v)", o.path, firstBytes(body, 200), err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.growing[o.view] {
		if r.Rows <= 0 || r.Rows > st.appended {
			return fmt.Errorf("%s: %d rows, outside (0, %d appended]", o.path, r.Rows, st.appended)
		}
		return nil
	}
	parent := st.viewRows[o.view]
	if r.Rows <= 0 || r.Rows > parent {
		return fmt.Errorf("%s: %d rows from a parent of %d", o.path, r.Rows, parent)
	}
	st.viewRows[o.name] = r.Rows
	st.newest = o.name
	st.answers["filter "+o.expr] = strconv.FormatInt(r.Rows, 10)
	return nil
}

// checkTable: the page's total is the view's row count and its rows obey
// the requested order (missing first ascending, last descending).
func (st *runState) checkTable(o *op, body []byte) error {
	var r struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Total   int64      `json:"total"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: %v", o.path, err)
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("%s: empty page", o.path)
	}
	st.mu.Lock()
	rows, growing := st.viewRows[o.view], st.growing[o.view]
	st.mu.Unlock()
	if !growing && r.Total != rows {
		return fmt.Errorf("%s: total %d, view has %d rows", o.path, r.Total, rows)
	}
	specs := strings.Split(o.order, ",")
	for i := 1; i < len(r.Rows); i++ {
		if c := st.compareRows(r.Rows[i-1], r.Rows[i], specs); c > 0 {
			return fmt.Errorf("%s: rows %d and %d are out of order: %v then %v", o.path, i-1, i, r.Rows[i-1], r.Rows[i])
		}
	}
	return nil
}

// compareRows orders two rendered rows by "+Col,-Col" specs; the order
// columns are the first len(specs) columns of a table page.
func (st *runState) compareRows(a, b []string, specs []string) int {
	for i, spec := range specs {
		if i >= len(a) || i >= len(b) {
			return 0
		}
		c := compareCells(a[i], b[i], st.numeric[spec[1:]])
		if spec[0] == '-' {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

func compareCells(a, b string, numeric bool) int {
	switch {
	case a == b:
		return 0
	case a == "": // missing sorts before any value
		return -1
	case b == "":
		return 1
	case numeric:
		x, _ := strconv.ParseFloat(a, 64)
		y, _ := strconv.ParseFloat(b, 64)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

func (st *runState) checkAppend(o *op, body []byte, latencyMs float64) error {
	var r struct {
		Appended int   `json:"appended"`
		OpenRows int64 `json:"openRows"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.Appended != o.rows {
		return fmt.Errorf("append: acknowledged %d of %d rows: %s (%v)", r.Appended, o.rows, firstBytes(body, 200), err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.appended += int64(r.Appended)
	// The open segment shrank: this append crossed -segment-rows and
	// paid the seal's fsync chain before it was acknowledged.
	if r.OpenRows < st.openRows+int64(r.Appended) {
		st.sealAcks = append(st.sealAcks, latencyMs)
	}
	st.openRows = r.OpenRows
	return nil
}

// digest is a short stable fingerprint of an answer.
func digest(b []byte) string {
	var h uint64 = 14695981039346656037 // FNV-1a
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return strconv.FormatUint(h, 16)
}
