package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop connection: it sends its next request only
// after the previous response's last byte.
type client struct {
	hc        *http.Client
	base      string
	lastExact *op // the last exact histogram this client completed
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one timed exchange. Times run from just before the
// request is written.
type response struct {
	sent      time.Time
	status    int
	body      []byte
	firstLine time.Duration // first newline of the body seen
	lastByte  time.Duration
}

func (c *client) send(path string, body []byte, traceID string) (response, error) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if traceID != "" {
		req.Header.Set("X-Hillview-Trace", traceID)
	}
	r := response{sent: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if r.firstLine == 0 && bytes.IndexByte(buf[:n], '\n') >= 0 {
				r.firstLine = time.Since(r.sent)
			}
			r.body = append(r.body, buf[:n]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return r, err
		}
	}
	r.lastByte = time.Since(r.sent)
	if r.firstLine == 0 {
		r.firstLine = r.lastByte
	}
	return r, nil
}

// getJSON fetches a control-plane endpoint (status, meta, trace) outside
// any timed exchange.
func getJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, firstBytes(b, 200))
	}
	return json.Unmarshal(b, out)
}

func fetchStatus(base string) (statusSnap, error) {
	var s statusSnap
	err := getJSON(base, "/api/status", &s)
	return s, err
}

// section is the outcome of one timed stretch of a run.
type section struct {
	lat       map[string]samples // op class → latency, ms
	first     samples            // streaming scan histograms: time to first NDJSON line, ms
	attempted int
	failed    int
	firstErr  error
	respBytes int64
	wallS     float64
	nextCycle int

	// Traced ops only.
	traced     []opBreakdown
	tracedHist samples // scan-histogram latency of traced ops, ms
	plainHist  samples // the same population in the untraced cycles beside them
}

func (s *section) ok() int { return s.attempted - s.failed }

// plus returns the op counts and latencies of two consecutive sections
// together (wall times and trace data are per section and not carried).
func (s *section) plus(o *section) *section {
	sum := &section{lat: map[string]samples{}, attempted: s.attempted + o.attempted, failed: s.failed + o.failed,
		firstErr: s.firstErr, respBytes: s.respBytes + o.respBytes, nextCycle: o.nextCycle}
	if sum.firstErr == nil {
		sum.firstErr = o.firstErr
	}
	for _, part := range []*section{s, o} {
		for class, l := range part.lat {
			sum.lat[class] = append(sum.lat[class], l...)
		}
	}
	return sum
}

// sectionOpts selects how a section drives the server. Its length is a
// count: cycles of the op list, or with batches > 0 the appends of the
// paced writer, beside which the readers loop until the last one.
type sectionOpts struct {
	clients    int
	cycles     int
	batches    int
	startCycle int
	traceLog   *traceLog // non-nil: odd cycles are traced and their spans kept
}

// runSection drives the op list from opts.startCycle with closed-loop
// clients. A started cycle is always finished, so every class keeps its
// share of the mix.
func (d *deployment) runSection(g *opGen, st *runState, cls []*client, opts sectionOpts) *section {
	sec := &section{lat: map[string]samples{}}
	var mu sync.Mutex // guards sec and the op iterator
	cycle, pos := opts.startCycle, 0
	var ops []op
	var writerDone atomic.Bool
	start := time.Now()
	next := func() (op, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if pos == len(ops) {
			if (opts.batches > 0 && writerDone.Load()) || (opts.batches == 0 && cycle-opts.startCycle == opts.cycles) {
				return op{}, 0, false
			}
			ops, pos = g.cycle(cycle), 0
			cycle++
		}
		o := ops[pos]
		pos++
		return o, cycle - 1, true
	}
	var opSeq atomic.Int64
	record := func(o *op, r response, err error, bd *opBreakdown) error {
		ms := float64(r.lastByte) / 1e6
		if err == nil {
			err = st.validate(o, r.status, r.body, ms)
		}
		mu.Lock()
		defer mu.Unlock()
		sec.attempted++
		sec.respBytes += int64(len(r.body))
		if err != nil {
			sec.failed++
			if sec.firstErr == nil {
				sec.firstErr = err
			}
			return err
		}
		sec.lat[o.class] = append(sec.lat[o.class], ms)
		scanHist := o.class == classHist && o.streaming
		if scanHist {
			sec.first = append(sec.first, float64(r.firstLine)/1e6)
		}
		if opts.traceLog != nil && scanHist {
			if bd != nil {
				sec.tracedHist = append(sec.tracedHist, ms)
			} else {
				sec.plainHist = append(sec.plainHist, ms)
			}
		}
		if bd != nil {
			bd.class = o.class
			sec.traced = append(sec.traced, *bd)
		}
		return nil
	}

	var wg sync.WaitGroup
	if opts.batches > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.writeLoop(g, opts.batches, func(o *op, r response, err error) { record(o, r, err, nil) })
			writerDone.Store(true)
		}()
	}
	for _, cl := range cls[:opts.clients] {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				o, cyc, ok := next()
				if !ok {
					return
				}
				o, err := st.resolve(o, cl)
				if err != nil {
					record(&o, response{}, err, nil)
					continue
				}
				traced := opts.traceLog != nil && cyc%2 == 1
				traceID, opID := "", 0
				if traced {
					opID = int(opSeq.Add(1))
					traceID = fmt.Sprintf("bench%011x", opID)
				}
				r, err := cl.send(o.path, o.body, traceID)
				var bd *opBreakdown
				if traced && err == nil && r.status == http.StatusOK {
					var rec traceRecord
					if err = getJSON(d.base, "/api/trace/"+traceID, &rec); err == nil {
						spans := opSpans(opID, r.sent, r.firstLine, r.lastByte, rec)
						opts.traceLog.add(spans)
						b := foldOp(spans)
						bd = &b
					}
				}
				if record(&o, r, err, bd) == nil && o.rememberAs {
					kept := o
					cl.lastExact = &kept
				}
			}
		}(cl)
	}
	wg.Wait()
	sec.wallS = time.Since(start).Seconds()
	sec.nextCycle = cycle
	return sec
}

// resolve fills in what an op leaves open until it is sent: which
// histogram a cached op repeats and which derived view is the newest.
func (st *runState) resolve(o op, cl *client) (op, error) {
	if o.class == classCached {
		if cl.lastExact == nil {
			return o, fmt.Errorf("cached op before any exact histogram completed")
		}
		o = *cl.lastExact
		o.class, o.rememberAs = classCached, false
		return o, nil
	}
	if o.view == newestView {
		st.mu.Lock()
		newest := st.newest
		st.mu.Unlock()
		if newest == "" {
			return o, fmt.Errorf("%s: no derived view yet", o.path)
		}
		o.view = newest
		o.path = strings.ReplaceAll(o.path, url.QueryEscape(newestView), newest)
	}
	return o, nil
}

// writeLoop is ingest_query's client A: it appends n seeded batches on a
// fixed schedule. A schedule, not a closed loop: the dataset then grows
// with the clock and not with ingest speed, so read latencies stay
// comparable when a later change makes appends faster or slower, and the
// append latency itself carries the ingest cost.
func (d *deployment) writeLoop(g *opGen, n int, record func(*op, response, error)) {
	cl := newClient(d.base)
	defer cl.close()
	tick := time.NewTicker(time.Second / time.Duration(g.size.appendHz))
	defer tick.Stop()
	for ; n > 0; n-- {
		<-tick.C
		o := g.appendOp(d.nextAppendBody())
		r, err := cl.send(o.path, o.body, "")
		record(&o, r, err)
	}
}
