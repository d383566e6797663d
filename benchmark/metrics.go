package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units and bounds; TestManifestAgrees keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that is a regression
}

// endToEnd is what a user of the spreadsheet sees. Every workload reports
// every one of them, measured with tracing off. Every bound is 0.25, the
// most a bound may be: this host's own speed shifts by 15-25% for minutes
// at a time (results/steadiness.txt), so a tighter bound would reject the
// benchmark against itself.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"hist_p50_ms", "ms", "lower", 0.25},
	{"hist_p95_ms", "ms", "lower", 0.25},
	{"first_partial_p50_ms", "ms", "lower", 0.25},
	{"cached_p50_ms", "ms", "lower", 0.25},
	{"heatmap_p50_ms", "ms", "lower", 0.25},
	{"heavyhitters_p50_ms", "ms", "lower", 0.25},
	{"table_p50_ms", "ms", "lower", 0.25},
	{"filter_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// timedDefs is what a workload's untraced run reports: the end-to-end
// metrics, and on ingest_query also the issue's two ingest metrics,
// which compare holds to the same bound. BENCHMARK.json can carry those
// two only as per-layer metrics — an end-to-end metric there must be
// non-zero on every workload and three workloads have no writer — so the
// driver's JSON line leaves them out.
func timedDefs(w *workload) []metricDef {
	if !w.ingest {
		return endToEnd
	}
	defs := append([]metricDef{}, endToEnd...)
	for _, d := range perLayer {
		if d.Name == "ingest_rows_per_s" || d.Name == "append_ack_p50_ms" {
			d.Bound = 0.25
			defs = append(defs, d)
		}
	}
	return defs
}

// perLayer is the traced run's output: counts from /api/status deltas,
// self times from spans, rates from direct probes. Layer = module name.
// A layer a workload bypasses reports 0 (wire.* in-process, ingest.*
// without -ingest-dir), which is why these carry no bound.
var perLayer = []metricDef{
	{"error_rate", "ratio", "lower", 0},
	{"ingest_rows_per_s", "rows/s", "higher", 0},
	{"append_ack_p50_ms", "ms", "lower", 0},

	{"http.requests", "count", "higher", 0},
	{"http.resp_bytes_per_op", "B", "lower", 0},
	{"http.self_ms_per_op", "ms", "lower", 0},
	{"http.json_encode_us", "us", "lower", 0},

	{"serve.admitted", "count", "higher", 0},
	{"serve.execs", "count", "lower", 0},
	{"serve.dedup_joins", "count", "higher", 0},
	{"serve.batch_members", "count", "higher", 0},
	{"serve.scans_saved", "count", "higher", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.queue_ms_per_op", "ms", "lower", 0},
	{"serve.batch_window_ms_per_op", "ms", "lower", 0},
	{"serve.self_ms_per_op", "ms", "lower", 0},

	{"spreadsheet.sketches_per_op", "count", "lower", 0},
	{"spreadsheet.self_ms_per_op", "ms", "lower", 0},

	{"engine.cache_hits", "count", "higher", 0},
	{"engine.cache_misses", "count", "lower", 0},
	{"engine.cache_hit_ratio", "ratio", "higher", 0},
	{"engine.partials_emitted", "count", "higher", 0},
	{"engine.replays", "count", "lower", 0},
	{"engine.scan_leaf_ms_per_op", "ms", "lower", 0},
	{"engine.merge_ms_per_op", "ms", "lower", 0},
	{"engine.self_ms_per_op", "ms", "lower", 0},

	{"sketch.hist_exact_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.hist_sampled_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.hist_string_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.hist2d_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.heavyhitters_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.nextk_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.range_mrows_per_s", "Mrows/s", "higher", 0},
	{"sketch.merge_us", "us", "lower", 0},

	{"expr.filter_mrows_per_s", "Mrows/s", "higher", 0},

	{"colstore.pool_hits", "count", "higher", 0},
	{"colstore.pool_misses", "count", "lower", 0},
	{"colstore.pool_evictions", "count", "lower", 0},
	{"colstore.pool_hit_ratio", "ratio", "higher", 0},
	{"colstore.resident_mb", "MB", "lower", 0},
	{"colstore.acquire_warm_us", "us", "lower", 0},
	{"colstore.acquire_cold_ms", "ms", "lower", 0},
	{"colstore.cold_mb_per_s", "MB/s", "higher", 0},

	{"storage.load_ms", "ms", "lower", 0},
	{"storage.disk_bytes_per_row", "B", "lower", 0},

	{"wire.bytes_in_per_op", "B", "lower", 0},
	{"wire.bytes_out_per_op", "B", "lower", 0},
	{"wire.frames_in_per_op", "count", "lower", 0},
	{"wire.encode_us_per_op", "us", "lower", 0},
	{"wire.decode_us_per_op", "us", "lower", 0},
	{"wire.hist_roundtrip_us", "us", "lower", 0},
	{"wire.hist2d_roundtrip_us", "us", "lower", 0},

	{"cluster.call_ms_per_op", "ms", "lower", 0},
	{"cluster.worker_sketch_ms_per_op", "ms", "lower", 0},
	{"cluster.call_overhead_ms_per_op", "ms", "lower", 0},
	{"cluster.straggler_ratio", "ratio", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.spec_launches", "count", "lower", 0},

	{"ingest.appends", "count", "higher", 0},
	{"ingest.seals", "count", "higher", 0},
	{"ingest.generation_bumps", "count", "lower", 0},
	{"ingest.disk_bytes_per_row", "B", "lower", 0},
	{"ingest.standing_get_ms", "ms", "lower", 0},
	{"ingest.seal_ack_p95_ms", "ms", "lower", 0},

	{"obs.unattributed_ms_per_op", "ms", "lower", 0},
	{"obs.tracing_overhead_ratio", "ratio", "lower", 0},

	{"proc.root_cpu_ms_per_op", "ms", "lower", 0},
	{"proc.worker_cpu_ms_per_op", "ms", "lower", 0},
	{"proc.root_rss_mb", "MB", "lower", 0},
	{"proc.worker_rss_mb", "MB", "lower", 0},
	{"proc.build_s", "s", "lower", 0},
	{"gen.datagen_s", "s", "lower", 0},
	{"loadgen.cpu_ms_per_op", "ms", "lower", 0},
}

// metricValue is one reported number. N is the sample count behind a
// latency statistic (0 for counters and rates).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report holds a run's metrics keyed by name.
type report map[string]metricValue

func (r report) set(name string, v float64) { r.setN(name, v, 0) }

func (r report) setN(name string, v float64, n int) {
	r[name] = metricValue{Value: v, N: n}
}

// finish checks the report against defs — every defined metric present,
// nothing undefined, no NaN or infinity — and fills in the units.
func (r report) finish(defs []metricDef) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		mv, ok := r[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return fmt.Errorf("metric %s is %v (no samples?)", d.Name, mv.Value)
		}
		mv.Unit = d.Unit
		r[d.Name] = mv
	}
	for name := range r {
		if !known[name] {
			return fmt.Errorf("metric %s is not defined in metrics.go", name)
		}
	}
	return nil
}

// print writes one "workload metric value unit" line per metric in
// definition order.
func (r report) print(w io.Writer, workload string, defs []metricDef) {
	for _, d := range defs {
		mv := r[d.Name]
		line := fmt.Sprintf("%s %s %.6g %s", workload, d.Name, mv.Value, d.Unit)
		if mv.N > 0 {
			line += fmt.Sprintf(" n=%d", mv.N)
		}
		fmt.Fprintln(w, line)
	}
}
