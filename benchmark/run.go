package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// deployment is one running set of processes under a workload's flags.
type deployment struct {
	w       *workload
	root    *proc
	workers []*proc
	base    string // http://host:port of the root

	ingestDir string
	rootArgs  []string // root flags without -http, reused by the restart check

	loadMs       float64
	appendBodies [][]byte
	bodySeq      int
}

func (d *deployment) nextAppendBody() []byte {
	b := d.appendBodies[d.bodySeq%len(d.appendBodies)]
	d.bodySeq++
	return b
}

func (d *deployment) stop() {
	if d.root != nil && !d.root.exited() {
		d.root.stop()
	}
	for _, w := range d.workers {
		if !w.exited() {
			w.stop()
		}
	}
}

func (d *deployment) procs() []*proc { return append([]*proc{d.root}, d.workers...) }

// startRoot launches hillview with the deployment's flags on a free port
// and waits for /api/status to answer.
func (e *env) startRoot(d *deployment, n int) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := append([]string{"-http", addr}, d.rootArgs...)
	if d.root, err = e.procs.start(e.runDir, fmt.Sprintf("root-%d", n), e.bin("hillview"), args...); err != nil {
		return err
	}
	d.base = "http://" + addr
	return awaitHTTP(d.root, d.base+"/api/status", 30*time.Second)
}

// deploy starts the workload's processes. Deployments are numbered
// within the invocation (set-up is repeated), keeping logs and ingest
// dirs apart.
func (e *env) deploy(w *workload, dataDir string) (*deployment, error) {
	d := &deployment{w: w}
	e.deployments++
	n := e.deployments
	switch {
	case w.cluster:
		var addrs []string
		for i := 0; i < clusterWorkers; i++ {
			addr, err := freeAddr()
			if err != nil {
				return d, err
			}
			p, err := e.procs.start(e.runDir, fmt.Sprintf("worker-%d-%d", n, i), e.bin("hillview-worker"),
				"-listen", addr, "-parallelism", "1")
			if err != nil {
				return d, err
			}
			d.workers = append(d.workers, p)
			addrs = append(addrs, addr)
		}
		for i, p := range d.workers {
			if err := awaitTCP(p, addrs[i], 30*time.Second); err != nil {
				return d, err
			}
		}
		d.rootArgs = []string{"-workers", strings.Join(addrs, ",")}
	case w.poolFraction > 0:
		budget := int64(float64(dirBytes(filepath.Join(dataDir, "all"))) * w.poolFraction)
		d.rootArgs = []string{"-pool-budget", strconv.FormatInt(budget, 10)}
	case w.ingest:
		d.ingestDir = filepath.Join(e.runDir, fmt.Sprintf("ingest-%d", n))
		d.rootArgs = []string{"-ingest-dir", d.ingestDir, "-segment-rows", strconv.Itoa(e.size.segmentRows)}
	}
	return d, e.startRoot(d, n)
}

// post sends one untimed, bodiless control request on cl, requires a 200
// and decodes the JSON answer into out (nil = ignore it).
func post(cl *client, path string, out any) error {
	r, err := cl.send(path, []byte{}, "")
	if err != nil {
		return err
	}
	if r.status != 200 {
		return fmt.Errorf("POST %s: status %d: %s", path, r.status, firstBytes(r.body, 200))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(r.body, out)
}

// do sends one untimed op of the set-up on cl and validates the answer.
func (st *runState) do(cl *client, o op) error {
	r, err := cl.send(o.path, o.body, "")
	if err != nil {
		return err
	}
	return st.validate(&o, r.status, r.body, 0)
}

// prepared is a deployment that is loaded and warm, ready to be timed.
type prepared struct {
	d      *deployment
	g      *opGen
	st     *runState
	cls    []*client
	cycle  int     // next cycle of the op list
	setupS float64 // first exec → warm-up done
}

func (p *prepared) close() {
	for _, cl := range p.cls {
		cl.close()
	}
	p.d.stop()
}

// setUp brings a deployment from nothing to warm: processes ready, the
// dataset loaded (or the ingest dataset created, seeded with one sealed
// segment and given its standing query), and one untimed pass over every
// op class. The whole of it is setup_s.
func (e *env) setUp(w *workload, dataDir string) (*prepared, error) {
	g := &opGen{w: w, seed: e.seed, size: e.size}
	var bodies [][]byte
	if w.ingest {
		bodies = g.appendBodies() // rendering inputs is not set-up of the system under test
	}
	start := time.Now()
	d, err := e.deploy(w, dataDir)
	p := &prepared{d: d, g: g}
	if err != nil {
		return p, err
	}
	d.appendBodies = bodies
	for i := 0; i < clients; i++ {
		p.cls = append(p.cls, newClient(d.base))
	}
	ctl := p.cls[0]
	if w.ingest {
		p.st = newRunState(w.view, "lat", evNumeric)
		p.st.growing[w.view] = true
		if err := post(ctl, query("/api/ingest", "op", "create", "name", w.view, "schema", evSchema), nil); err != nil {
			return p, err
		}
		for i := 0; i < e.size.initBatches; i++ {
			if err := p.st.do(ctl, g.appendOp(d.nextAppendBody())); err != nil {
				return p, fmt.Errorf("initial append %d: %w", i, err)
			}
		}
		if err := post(ctl, query("/api/ingest", "op", "seal", "name", w.view), nil); err != nil {
			return p, err
		}
		p.st.openRows, p.st.sealAcks = 0, nil
		var standing struct {
			ID string `json:"id"`
		}
		if err := post(ctl, query("/api/standing", "op", "register", "name", w.view,
			"sketch", "hist", "col", "lat", "lo", "-90", "hi", "90", "bars", "36"), &standing); err != nil {
			return p, err
		}
		g.standingID = standing.ID
	} else {
		p.st = newRunState(w.view, "DepDelay", allNumeric)
		source := "dir:" + filepath.Join(dataDir, "all")
		if w.cluster {
			source = "dir:" + filepath.Join(dataDir, "shard-{worker}")
		}
		loadStart := time.Now()
		var loaded struct {
			Rows int64 `json:"rows"`
		}
		if err := getJSON(d.base, query("/api/load", "name", w.view, "source", source), &loaded); err != nil {
			return p, err
		}
		d.loadMs = float64(time.Since(loadStart)) / 1e6
		if loaded.Rows != int64(e.size.rows) {
			return p, fmt.Errorf("loaded %d rows, generated %d", loaded.Rows, e.size.rows)
		}
		p.st.viewRows[w.view] = loaded.Rows
		// The op list reads "the newest derived view" from its first
		// cycle on; give it one to find.
		if err := p.st.do(ctl, filter(w.view, "f_warm", "Distance > 600")); err != nil {
			return p, fmt.Errorf("warm-up filter: %w", err)
		}
	}
	// A cached op repeats its client's last exact histogram; bars=19 is
	// below anything the op list asks for, so this one is never repeated
	// by accident.
	prime := exactHist(w.view, p.st.primeCol, 19)
	if err := p.st.do(ctl, prime); err != nil {
		return p, fmt.Errorf("priming histogram: %w", err)
	}
	for _, cl := range p.cls {
		cl.lastExact = &prime
	}
	warm := d.runSection(g, p.st, p.cls, sectionOpts{clients: 1, cycles: 1})
	if warm.failed > 0 {
		return p, fmt.Errorf("warm-up: %d of %d ops failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	p.cycle = warm.nextCycle
	p.setupS = time.Since(start).Seconds()
	return p, nil
}

// setupRepeats is how many times a run sets the system up; setup_s is
// the median, so one slow process start does not decide it.
const setupRepeats = 5

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   report            `json:"metrics"`
	Answers   map[string]string `json:"answers,omitempty"`
}

// latencyMetrics maps each end-to-end p50 onto its op class.
var latencyMetrics = []struct{ metric, class string }{
	{"hist_p50_ms", classHist},
	{"cached_p50_ms", classCached},
	{"heatmap_p50_ms", classHeatmap},
	{"heavyhitters_p50_ms", classHH},
	{"table_p50_ms", classTable},
	{"filter_p50_ms", classFilter},
}

// runTimed is the untraced run: it sets the system up setupRepeats
// times, times the op list on the last deployment, and reports the
// end-to-end metrics.
func (e *env) runTimed(w *workload, dataDir string, log io.Writer) (*result, error) {
	var setups samples
	var p *prepared
	for n := 0; n < setupRepeats; n++ {
		if p != nil {
			p.close()
		}
		var err error
		if p, err = e.setUp(w, dataDir); err != nil {
			p.close()
			return nil, fmt.Errorf("set-up %d: %w", n, err)
		}
		setups = append(setups, p.setupS)
	}
	defer p.close()
	printFlags(log, p.d)

	before, err := fetchStatus(p.d.base)
	if err != nil {
		return nil, err
	}
	// Latency is what one analyst feels on an otherwise idle server, so
	// it is taken with one client; throughput is taken with one client
	// per core. Two closed-loop clients on two cores mostly measure each
	// other: a 3 ms cached repeat takes 3 or 15 ms depending on whether
	// the neighbour is inside a table scan, and the median of such a
	// two-humped distribution is not a steady number. Under ingest the
	// second connection is the writer, for the whole section.
	stealBefore, measureStart := hostSteal(), time.Now()
	n := e.size.measured[w.name]
	solo := p.d.runSection(p.g, p.st, p.cls, sectionOpts{clients: 1, cycles: n.solo, batches: n.batches, startCycle: p.cycle})
	load, all := solo, solo
	if n.duo > 0 {
		load = p.d.runSection(p.g, p.st, p.cls, sectionOpts{clients: clients, cycles: n.duo, startCycle: solo.nextCycle})
		all = solo.plus(load)
	}
	stealAfter, measureEnd := hostSteal(), time.Now()
	after, err := fetchStatus(p.d.base)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Seed: e.seed, Attempted: all.attempted, Failed: all.failed,
		Metrics: report{}, Answers: p.st.answers}
	m := res.Metrics
	m.setN("setup_s", setups.median(), len(setups))
	m.setN("ops_per_s", float64(load.ok())/load.wallS, load.ok())
	for _, lm := range latencyMetrics {
		m.setN(lm.metric, solo.lat[lm.class].median(), len(solo.lat[lm.class]))
	}
	p95, enough := solo.lat[classHist].percentile(0.95)
	m.setN("hist_p95_ms", p95, len(solo.lat[classHist]))
	m.setN("first_partial_p50_ms", solo.first.median(), len(solo.first))
	var peak float64
	for _, pr := range p.d.procs() {
		hwm, err := pr.memMB("VmHWM")
		if err != nil {
			return nil, err
		}
		peak += hwm
	}
	m.set("peak_rss_mb", peak)

	checks := []error{all.firstErr, checkCounters(w, after.sub(before), len(solo.lat[classCached]))}
	if !enough && e.size.full() {
		// The driver's JSON line must carry the metric, so a p95 without
		// its samples fails the run; the smoke sizes only print it.
		checks = append(checks, fmt.Errorf("hist_p95_ms rests on %d samples, fewer than %d beyond the percentile",
			len(solo.lat[classHist]), minBeyond))
	}
	if w.ingest {
		appends := solo.lat[classAppend]
		m.setN("ingest_rows_per_s", float64(len(appends)*e.size.batchRows)/(appends.sum()/1e3), len(appends))
		m.setN("append_ack_p50_ms", appends.median(), len(appends))
		checks = append(checks, e.checkDurability(p))
	}
	res.Correct = passed(log, checks)
	if w.ingest {
		fmt.Fprintf(log, "# measured: %d appends and %d reader cycles beside them took %.1f s", n.batches, solo.nextCycle-p.cycle, solo.wallS)
	} else {
		fmt.Fprintf(log, "# measured: %d cycles with 1 client (latencies) took %.1f s, %d cycles with %d (throughput) took %.1f s",
			n.solo, solo.wallS, n.duo, clients, load.wallS)
	}
	fmt.Fprintf(log, "; %d ops attempted, %d failed\n", all.attempted, all.failed)
	// A noisy neighbour shows here before it shows in the numbers.
	fmt.Fprintf(log, "# host steal during the measured section: %.1f%% of one core\n",
		100*ratio(stealAfter-stealBefore, float64(measureEnd.Sub(measureStart).Milliseconds())))
	return res, m.finish(timedDefs(w))
}

// passed prints every failed check and reports whether none did.
func passed(log io.Writer, checks []error) bool {
	ok := true
	for _, err := range checks {
		if err != nil {
			ok = false
			fmt.Fprintf(log, "# CHECK FAILED: %v\n", err)
		}
	}
	return ok
}

// checkCounters holds the server's own counters against what the op
// list must have caused: nothing shed, no wire traffic without workers,
// and two cache hits (the range and the histogram) for each of the
// soloCached cached ops that ran with one client. With two clients a
// histogram can share a batch window with the neighbour's query, and
// batched members bypass the computation cache, so its repeat is then a
// scan; and under ingest a seal between a histogram and its repeat turns
// the repeat into a miss. Both are the program's design, not failures.
func checkCounters(w *workload, d statusDelta, soloCached int) error {
	if d.Shed != 0 {
		return fmt.Errorf("server shed %d queries", d.Shed)
	}
	if want := int64(2 * soloCached); !w.ingest && d.CacheHits < want {
		return fmt.Errorf("cache hits rose by %d, cached ops alone account for %d", d.CacheHits, want)
	}
	in, out, frames, enc, dec := d.WireIn, d.WireOut, d.WireFramesIn, d.WireEncNs, d.WireDecNs
	if !w.cluster && in+out+frames+enc+dec != 0 {
		return fmt.Errorf("wire counters moved in-process: %+v", d)
	}
	if w.cluster && (in == 0 || out == 0 || frames == 0) {
		return fmt.Errorf("wire counters did not move under a cluster: %+v", d)
	}
	return nil
}

// checkDurability ends ingest_query: the sealed rows the server
// acknowledged are visible, and after SIGKILL and a restart on the same
// -ingest-dir every one of them is still there. (The kill leaves the OS
// page cache intact; dropping unflushed writes needs the in-program
// crash filesystem, which testkit.RunIngest drives.)
func (e *env) checkDurability(p *prepared) error {
	p.st.mu.Lock()
	sealed := p.st.appended - p.st.openRows
	p.st.mu.Unlock()
	var meta struct {
		Rows int64 `json:"rows"`
	}
	path := query("/api/meta", "view", p.d.w.view)
	if err := getJSON(p.d.base, path, &meta); err != nil {
		return err
	}
	if meta.Rows != sealed {
		return fmt.Errorf("durability: %d rows visible, %d acknowledged sealed", meta.Rows, sealed)
	}
	p.d.root.kill()
	e.deployments++
	if err := e.startRoot(p.d, e.deployments); err != nil {
		return fmt.Errorf("durability: restart: %w", err)
	}
	if err := getJSON(p.d.base, path, &meta); err != nil {
		return err
	}
	if meta.Rows != sealed {
		return fmt.Errorf("durability: %d rows after SIGKILL+restart, %d acknowledged sealed", meta.Rows, sealed)
	}
	return nil
}

// printFlags records every non-default flag each process was given.
func printFlags(w io.Writer, d *deployment) {
	for _, p := range d.procs() {
		fmt.Fprintf(w, "# %s flags: %s\n", filepath.Base(p.cmd.Path), strings.Join(p.args, " "))
	}
}
