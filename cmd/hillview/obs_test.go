package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/storage"
)

// clusterServer builds a server over a real cluster of n workers with
// the given replication factor.
func clusterServer(t *testing.T, n, replication int) *server {
	t.Helper()
	flights.Register()
	cfg := engine.Config{AggregationWindow: -1}
	addrs := make([]string, n)
	for i := range addrs {
		w := cluster.NewWorker(storage.NewLoader(cfg, 0))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = addr
	}
	clu, err := cluster.ConnectOptions(nil, addrs, cfg, cluster.Options{Replication: replication})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clu.Close() })
	s := newServer(engine.NewRoot(clu.Loader()), serve.Config{Deadline: -1}, 0)
	s.attachEnv(nil, clu)
	return s
}

// TestStatusMetricsDrift pins the register-through-obs rule: every
// group in the metrics registry names the /api/status section that
// carries the same telemetry, and that section must actually exist in
// the status JSON — so /metrics and /api/status cannot drift apart
// silently. Checked in both deployment modes, since attachEnv registers
// different groups in each.
func TestStatusMetricsDrift(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *server
	}{
		{"in-process", testServer(t)},
		{"cluster", clusterServer(t, 1, 1)},
		{"ingest", testIngestServer(t, -1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.s
			get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1")
			rec, body := get(t, s.handleStatus, "/api/status")
			if rec.Code != http.StatusOK {
				t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
			}
			groups := s.reg.Groups()
			if len(groups) < 6 {
				t.Fatalf("only %d groups registered", len(groups))
			}
			for _, g := range groups {
				if g.Section == "" {
					t.Errorf("group %q has no status section", g.Name)
					continue
				}
				if _, ok := body[g.Section]; !ok {
					t.Errorf("registered group %q: status JSON has no %q section (drift)", g.Name, g.Section)
				}
			}
		})
	}
}

// TestMetricsEndpoint scrapes /metrics after a few queries and checks
// the output is valid Prometheus exposition text containing the
// subsystem metrics, latency histogram included.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=1")
	mux := s.mux()
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest("GET", "/api/histogram?view=fl&col=Distance&bars=10", nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("histogram: %d %s", rec.Code, rec.Body.String())
		}
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	text := rec.Body.String()
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("invalid exposition text: %v\n%s", err, text)
	}
	for _, want := range []string{
		"hillview_http_requests_total",
		"hillview_serve_admitted_total",
		"hillview_serve_query_duration_seconds_bucket",
		"hillview_serve_query_duration_seconds_count",
		"hillview_engine_replays_total",
		"hillview_engine_partials_emitted_total",
		"hillview_computation_cache_misses_total",
		"hillview_views_loaded",
		"hillview_traces_started_total",
		"hillview_column_pool_resident_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The query latency histogram must have recorded the two queries
	// (plus the load), not just exist.
	if s.sched.LatencyHistogram().Count() < 2 {
		t.Errorf("latency histogram count = %d", s.sched.LatencyHistogram().Count())
	}
}

// TestTraceEndToEndCluster is the acceptance path: a query sent with an
// X-Hillview-Trace header against a 2-replica cluster must yield, at
// /api/trace/<id>, a finished trace whose spans cover the whole
// pipeline — HTTP ingress, admission queue, execution, the root→worker
// RPC, and the worker-side scan and merge stitched into the same
// timeline.
func TestTraceEndToEndCluster(t *testing.T) {
	s := clusterServer(t, 2, 2)
	mux := s.mux()
	if rec, _ := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=20000,parts=4,seed=7"); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	const id = "deadbeef01234567"
	req := httptest.NewRequest("GET", "/api/histogram?view=fl&col=Distance&bars=10", nil)
	req.Header.Set("X-Hillview-Trace", id)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Hillview-Trace"); got != id {
		t.Errorf("response trace header = %q, want %q", got, id)
	}

	req = httptest.NewRequest("GET", "/api/trace/"+id, nil)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", rec.Code, rec.Body.String())
	}
	var tr struct {
		ID      string `json:"id"`
		Dataset string `json:"dataset"`
		Sketch  string `json:"sketch"`
		Spans   []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("bad trace JSON: %v\n%s", err, rec.Body.String())
	}
	if tr.ID != id {
		t.Errorf("trace id = %q", tr.ID)
	}
	// Repro info for the slow-query line: dataset and sketch name.
	if tr.Dataset == "" || tr.Sketch == "" {
		t.Errorf("trace missing repro info: dataset=%q sketch=%q", tr.Dataset, tr.Sketch)
	}
	have := map[string]int{}
	for _, sp := range tr.Spans {
		have[sp.Name]++
	}
	for _, want := range []string{
		"http.histogram", "serve.queue", "serve.exec",
		"wire.call", "worker.sketch", "scan.leaf", "merge.tree",
	} {
		if have[want] == 0 {
			t.Errorf("trace has no %q span; spans = %v", want, have)
		}
	}

	// An unknown trace ID is a 404, not a crash or empty 200.
	req = httptest.NewRequest("GET", "/api/trace/0000000000000000", nil)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", rec.Code)
	}
}

// TestTraceUntracedStatusEndpoints pins that introspection endpoints do
// not mint traces: scraping /metrics and /api/status must not grow the
// trace ring.
func TestTraceUntracedStatusEndpoints(t *testing.T) {
	s := testServer(t)
	mux := s.mux()
	for _, url := range []string{"/api/status", "/metrics"} {
		req := httptest.NewRequest("GET", url, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", url, rec.Code)
		}
	}
	if n := s.tracer.Started(); n != 0 {
		t.Errorf("introspection endpoints started %d traces", n)
	}
}
