package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// runTraced is the per-layer run, separate from the timed one: no
// end-to-end number comes from it. One deployment serves two sections —
// half the timed run's solo count with one client alternating traced and
// untraced cycles, so spans do not contend and the tracing overhead is
// read off neighbouring cycles, then the timed run's duo count with both
// clients untraced for the /api/status and /proc deltas — before the seam
// and direct probes run in the harness process on the same files. Under
// ingest each section has one reader beside half the timed run's appends.
func (e *env) runTraced(w *workload, dataDir string, log io.Writer) (*result, error) {
	p, err := e.setUp(w, dataDir)
	defer p.close()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	printFlags(log, p.d)
	d := p.d

	// Traced section first: one client, odd cycles traced. Every cached
	// op here repeats a histogram that ran alone, so it must hit the
	// computation cache (a histogram that shared a batch window with the
	// other client's query bypasses the cache, by the scheduler's design).
	tlog := &traceLog{}
	count := e.size.measured[w.name]
	secB := d.runSection(p.g, p.st, p.cls, sectionOpts{clients: 1, cycles: count.solo / 2, batches: count.batches / 2, startCycle: p.cycle,
		traceLog: tlog})

	// Counting section: counts and CPU under the throughput part's conditions.
	before, err := fetchStatus(d.base)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := procCPU(d)
	if err != nil {
		return nil, err
	}
	selfBefore := selfCPUMs()
	loadClients := clients
	if w.ingest {
		loadClients = 1 // the second connection is the writer
	}
	secA := d.runSection(p.g, p.st, p.cls, sectionOpts{clients: loadClients, cycles: count.duo, batches: count.batches / 2, startCycle: secB.nextCycle})
	selfAfter := selfCPUMs()
	cpuAfter, err := procCPU(d)
	if err != nil {
		return nil, err
	}
	after, err := fetchStatus(d.base)
	if err != nil {
		return nil, err
	}
	delta := after.sub(before)

	res := &result{Workload: w.name, Seed: e.seed, Traced: true, Attempted: secA.attempted + secB.attempted,
		Failed: secA.failed + secB.failed, Metrics: report{}}
	m := res.Metrics
	ops := float64(secA.ok())
	queries := ops - float64(len(secA.lat[classAppend]))

	m.set("error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
	appends := secA.lat[classAppend]
	m.setN("ingest_rows_per_s", ratio(float64(len(appends)*e.size.batchRows), appends.sum()/1e3), len(appends))
	m.setN("append_ack_p50_ms", zeroIfEmpty(appends), len(appends))

	m.set("http.requests", float64(delta.HTTPRequests))
	m.set("http.resp_bytes_per_op", ratio(float64(secA.respBytes), ops))
	m.set("serve.admitted", float64(delta.Admitted))
	m.set("serve.execs", float64(delta.Execs))
	m.set("serve.dedup_joins", float64(delta.DedupJoins))
	m.set("serve.batch_members", float64(delta.BatchMembers))
	m.set("serve.scans_saved", float64(delta.ScansSaved))
	m.set("serve.shed", float64(delta.Shed))
	m.set("spreadsheet.sketches_per_op", ratio(float64(delta.Execs), queries))
	m.set("engine.cache_hits", float64(delta.CacheHits))
	m.set("engine.cache_misses", float64(delta.CacheMisses))
	m.set("engine.cache_hit_ratio", ratio(float64(delta.CacheHits), float64(delta.CacheHits+delta.CacheMisses)))
	m.set("engine.partials_emitted", float64(delta.Partials))
	m.set("engine.replays", float64(delta.Replays))
	m.set("colstore.pool_hits", float64(delta.PoolHits))
	m.set("colstore.pool_misses", float64(delta.PoolMisses))
	m.set("colstore.pool_evictions", float64(delta.PoolEvictions))
	m.set("colstore.pool_hit_ratio", ratio(float64(delta.PoolHits), float64(delta.PoolHits+delta.PoolMisses)))
	m.set("colstore.resident_mb", float64(delta.PoolResident)/(1<<20))
	m.set("storage.load_ms", d.loadMs)
	m.set("wire.bytes_in_per_op", ratio(float64(delta.WireIn), ops))
	m.set("wire.bytes_out_per_op", ratio(float64(delta.WireOut), ops))
	m.set("wire.frames_in_per_op", ratio(float64(delta.WireFramesIn), ops))
	m.set("wire.encode_us_per_op", ratio(float64(delta.WireEncNs)/1e3, ops))
	m.set("wire.decode_us_per_op", ratio(float64(delta.WireDecNs)/1e3, ops))
	m.set("cluster.retries", float64(delta.Retries))
	m.set("cluster.spec_launches", float64(delta.SpecLaunches))
	m.set("ingest.appends", float64(delta.Appends))
	m.set("ingest.seals", float64(delta.Seals))
	m.set("ingest.generation_bumps", float64(delta.GenerationBumps))
	m.setN("ingest.standing_get_ms", zeroIfEmpty(secA.lat[classStanding]), len(secA.lat[classStanding]))
	p.st.mu.Lock()
	sealAcks, sealedRows := samples(p.st.sealAcks), p.st.appended-p.st.openRows
	p.st.mu.Unlock()
	sealP95, _ := sealAcks.percentile(0.95)
	if len(sealAcks) == 0 {
		sealP95 = 0
	}
	m.setN("ingest.seal_ack_p95_ms", sealP95, len(sealAcks))

	m.set("proc.root_cpu_ms_per_op", ratio(cpuAfter[0]-cpuBefore[0], ops))
	var workerCPU float64
	for i := 1; i < len(cpuAfter); i++ {
		workerCPU += cpuAfter[i] - cpuBefore[i]
	}
	m.set("proc.worker_cpu_ms_per_op", ratio(workerCPU, ops))
	rootRSS, err := d.root.memMB("VmRSS")
	if err != nil {
		return nil, err
	}
	var workerRSS float64
	for _, wp := range d.workers {
		rss, err := wp.memMB("VmRSS")
		if err != nil {
			return nil, err
		}
		workerRSS += rss
	}
	m.set("proc.root_rss_mb", rootRSS)
	m.set("proc.worker_rss_mb", workerRSS)
	m.set("proc.build_s", e.buildS)
	m.set("gen.datagen_s", e.datagenS)
	m.set("loadgen.cpu_ms_per_op", ratio(selfAfter-selfBefore, ops))

	// Per-op span checks, then the traced layer table.
	checks := []error{secA.firstErr, secB.firstErr, checkCounters(w, delta, 0), checkTracedOps(w, secB)}
	t1 := layerTable(secB.traced)
	n := float64(len(secB.traced))
	var queue, window, scanLeaf, merge, call, worker float64
	var straggler samples
	for _, b := range secB.traced {
		queue += b.nameMs["serve.queue"]
		window += b.nameMs["serve.batch_window"]
		scanLeaf += b.nameMs["scan.leaf"] + b.nameMs["scan.chunk"]
		merge += b.nameMs["merge.tree"]
		call += b.callMs / clusterWorkers
		worker += b.workerMs / clusterWorkers
		if len(b.callsByNote) > 1 {
			straggler = append(straggler, b.stragglerRatio())
		}
	}
	m.set("http.self_ms_per_op", t1.selfMs["http"])
	m.set("serve.self_ms_per_op", t1.selfMs["serve"])
	m.set("serve.queue_ms_per_op", ratio(queue, n))
	m.set("serve.batch_window_ms_per_op", ratio(window, n))
	m.set("engine.self_ms_per_op", t1.selfMs["engine"])
	m.set("engine.scan_leaf_ms_per_op", ratio(scanLeaf, n))
	m.set("engine.merge_ms_per_op", ratio(merge, n))
	m.set("cluster.call_ms_per_op", ratio(call, n))
	m.set("cluster.worker_sketch_ms_per_op", ratio(worker, n))
	m.set("cluster.call_overhead_ms_per_op", ratio(call-worker, n))
	m.setN("cluster.straggler_ratio", zeroIfEmpty(straggler), len(straggler))
	m.set("obs.unattributed_ms_per_op", t1.selfMs[clientLayer]+t1.selfMs["other"])
	m.setN("obs.tracing_overhead_ratio", ratio(secB.tracedHist.median(), secB.plainHist.median()), len(secB.tracedHist))

	// The probes read the files from this process; the servers are done.
	p.close()
	probeDir, cols, rows := filepath.Join(dataDir, "all"), flightsProbe, int64(e.size.rows)
	diskBytes := dirBytes(probeDir)
	if w.ingest {
		probeDir, cols, rows = filepath.Join(d.ingestDir, w.view), evProbe, sealedRows
		diskBytes = dirBytes(probeDir)
		m.set("storage.disk_bytes_per_row", 0)
		m.set("ingest.disk_bytes_per_row", ratio(float64(diskBytes), float64(rows)))
	} else {
		m.set("storage.disk_bytes_per_row", ratio(float64(diskBytes), float64(rows)))
		m.set("ingest.disk_bytes_per_row", 0)
	}
	seam, err := seamProbe(probeDir, int64(float64(diskBytes)*w.poolFraction), cols, e.size.probeReps)
	if err != nil {
		return nil, err
	}
	tlog.add(seam.spans)
	t2 := layerTable(seam.ops)
	m.set("spreadsheet.self_ms_per_op", t2.selfMs["spreadsheet"])
	if err := directProbes(m, probeDir, cols, e.size.probeReps, seam); err != nil {
		return nil, err
	}

	t1.print(log, w.name, "traced", "all")
	byClass := map[string][]opBreakdown{}
	for _, b := range secB.traced {
		byClass[b.class] = append(byClass[b.class], b)
	}
	for _, lm := range latencyMetrics {
		layerTable(byClass[lm.class]).print(log, w.name, "traced", lm.class)
	}
	t2.print(log, w.name, "seam", "all")
	// At smoke sizes an op is a few ms and the client's own share of it
	// is not small; the 90% line is for the sizes the ledger is read at.
	if e.size.full() && !w.ingest && t1.coverage() < 0.9 {
		checks = append(checks, fmt.Errorf("traced layers cover %.0f%% of op wall, want ≥ 90%%", 100*t1.coverage()))
	}
	tracePath := filepath.Join(e.work, "out", "trace-"+w.name+".json")
	if err := tlog.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# %d spans of %d traced ops and %d seam-probe ops written to %s\n",
		len(tlog.spans), len(secB.traced), len(seam.ops), tracePath)

	res.Correct = passed(log, checks)
	return res, m.finish(perLayer)
}

func zeroIfEmpty(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.median()
}

// procCPU reads utime+stime of the root (index 0) and each worker.
func procCPU(d *deployment) ([]float64, error) {
	var out []float64
	for _, p := range d.procs() {
		ms, err := p.cpuMs()
		if err != nil {
			return nil, err
		}
		out = append(out, ms)
	}
	return out, nil
}

// checkTracedOps reads each traced op's spans: a cached op must be served
// from the computation cache without a scan, and every scanning class
// must scan (locally or on a worker).
func checkTracedOps(w *workload, sec *section) error {
	for i, b := range sec.traced {
		switch cls := b.class; cls {
		case classCached:
			if !w.ingest && (b.scans != 0 || b.cacheHits < 2) {
				return fmt.Errorf("traced cached op %d: %d scans, %d cache hits (want 0 and ≥2)", i, b.scans, b.cacheHits)
			}
		case classHist, classHeatmap, classHH, classTable:
			if b.scans == 0 {
				return fmt.Errorf("traced %s op %d did not scan", cls, i)
			}
		}
	}
	return nil
}

// layerTab is a layer table: mean self time per op and layer.
type layerTab struct {
	ops    int
	wallMs float64            // mean op wall
	selfMs map[string]float64 // layer → mean self ms per op
}

func layerTable(ops []opBreakdown) layerTab {
	t := layerTab{ops: len(ops), selfMs: map[string]float64{}}
	for _, b := range ops {
		t.wallMs += b.wallMs
		for layer, ms := range b.layerMs {
			t.selfMs[layer] += ms
		}
	}
	if t.ops > 0 {
		t.wallMs /= float64(t.ops)
		for layer := range t.selfMs {
			t.selfMs[layer] /= float64(t.ops)
		}
	}
	return t
}

// coverage is the share of op wall that named layers account for.
func (t layerTab) coverage() float64 {
	return 1 - ratio(t.selfMs[clientLayer]+t.selfMs["other"], t.wallMs)
}

// print writes "# layers <workload> <source> <class> <layer> <self ms/op>
// <share of op wall>" lines; the client's self time is printed as the
// unattributed row, not hidden.
func (t layerTab) print(w io.Writer, workload, source, class string) {
	if t.ops == 0 {
		return
	}
	layers := make([]string, 0, len(t.selfMs))
	for l := range t.selfMs {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return t.selfMs[layers[i]] > t.selfMs[layers[j]] })
	fmt.Fprintf(w, "# layers %s %s %-12s n=%d wall=%.3f ms/op\n", workload, source, class, t.ops, t.wallMs)
	for _, l := range layers {
		name := l
		if l == clientLayer {
			name = "unattributed"
		}
		fmt.Fprintf(w, "# layers %s %s %-12s   %-14s %8.3f ms/op %5.1f%%\n", workload, source, class, name, t.selfMs[l], 100*ratio(t.selfMs[l], t.wallMs))
	}
}
