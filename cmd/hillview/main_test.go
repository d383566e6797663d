package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/wire"
)

func testServer(t *testing.T) *server {
	return testServerViews(t, 0)
}

// testServerViews builds an in-process server with the given derived-
// view cap (0 = unlimited).
func testServerViews(t *testing.T, maxViews int) *server {
	t.Helper()
	flights.Register()
	pool := colstore.NewPool(0)
	loader := storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, pool)
	s := newServer(engine.NewRoot(loader), serve.Config{Deadline: -1}, maxViews)
	s.attachEnv(pool, nil)
	return s
}

func get(t *testing.T, h http.HandlerFunc, url string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	var body map[string]any
	if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, body
}

func TestParseOrder(t *testing.T) {
	o, err := parseOrder("+A,-B,C")
	if err != nil {
		t.Fatal(err)
	}
	if len(o) != 3 || !o[0].Ascending || o[1].Ascending || !o[2].Ascending {
		t.Fatalf("order = %v", o)
	}
	if _, err := parseOrder(""); err == nil {
		t.Error("empty order should fail")
	}
}

func TestLoadMetaTableEndpoints(t *testing.T) {
	s := testServer(t)
	rec, body := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	if body["rows"].(float64) != 5000 {
		t.Errorf("rows = %v", body["rows"])
	}
	rec, body = get(t, s.handleMeta, "/api/meta?view=fl")
	if rec.Code != http.StatusOK || body["schema"] == nil {
		t.Fatalf("meta: %d", rec.Code)
	}
	rec, body = get(t, s.handleTable, "/api/table?view=fl&order=-DepDelay&extra=Carrier&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("table: %d %s", rec.Code, rec.Body.String())
	}
	if rows := body["rows"].([]any); len(rows) != 5 {
		t.Errorf("rows = %d", len(rows))
	}
	// Error paths.
	rec, _ = get(t, s.handleMeta, "/api/meta?view=ghost")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("ghost view: %d", rec.Code)
	}
	rec, _ = get(t, s.handleLoad, "/api/load?name=only")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing source: %d", rec.Code)
	}
}

// TestStatusEndpoint checks the soft-state stats surface: computation
// cache and column pool report, and the retired raw-data cache section
// stays gone.
func TestStatusEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1")
	get(t, s.handleMeta, "/api/meta?view=fl")
	rec, body := get(t, s.handleStatus, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	for _, key := range []string{"computationCache", "columnPool", "replays"} {
		if _, ok := body[key]; !ok {
			t.Errorf("status missing %q: %v", key, body)
		}
	}
	if _, ok := body["dataCache"]; ok {
		t.Errorf("status still reports a dataCache section: %v", body)
	}
	cc := body["computationCache"].(map[string]any)
	if cc["hits"].(float64)+cc["misses"].(float64) == 0 {
		t.Errorf("computation cache never consulted: %v", cc)
	}
}

// TestStatusEndpointClusterWire checks that in cluster mode the status
// endpoint reports per-connection wire counters: bytes and frames in
// each direction plus encode/decode time — the observability behind the
// binary codec's bandwidth claims.
func TestStatusEndpointClusterWire(t *testing.T) {
	flights.Register()
	w := cluster.NewWorker(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	clu, err := cluster.Connect([]string{addr}, engine.Config{AggregationWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Close()
	s := newServer(engine.NewRoot(clu.Loader()), serve.Config{Deadline: -1}, 0)
	s.attachEnv(nil, clu)
	if rec, _ := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1"); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	get(t, s.handleMeta, "/api/meta?view=fl")
	rec, body := get(t, s.handleStatus, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	conns, ok := body["wire"].([]any)
	if !ok || len(conns) != 1 {
		t.Fatalf("wire section missing or wrong size: %v", body["wire"])
	}
	c0 := conns[0].(map[string]any)
	if c0["worker"].(string) != addr {
		t.Errorf("worker = %v, want %s", c0["worker"], addr)
	}
	for _, key := range []string{"bytesIn", "bytesOut", "framesIn", "framesOut", "encodeNs", "decodeNs"} {
		if v, ok := c0[key].(float64); !ok || v <= 0 {
			t.Errorf("wire counter %q did not move: %v", key, c0[key])
		}
	}
}

func TestHistogramEndpointStreamsNDJSON(t *testing.T) {
	s := testServer(t)
	if rec, _ := get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=20000,parts=8,seed=2"); rec.Code != 200 {
		t.Fatal(rec.Body.String())
	}
	req := httptest.NewRequest("GET", "/api/histogram?view=fl&col=DepDelay&bars=20&cdf=1", nil)
	rec := httptest.NewRecorder()
	s.handleHistogram(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) < 1 {
		t.Fatal("no NDJSON lines")
	}
	// The last line is the final summary with buckets and cdf.
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final["partial"] != false {
		t.Errorf("last line should be final: %v", final)
	}
	if counts := final["counts"].([]any); len(counts) != 20 {
		t.Errorf("bars = %d", len(counts))
	}
	if final["cdf"] == nil {
		t.Error("cdf missing")
	}
}

// TestHistogramBarsLimit: bars becomes a bucket count, which a worker
// decodes only up to wire.MaxElems, so more bars than that is a
// plain-text 400 before any scan — and the server answers the next query.
func TestHistogramBarsLimit(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1")
	for _, bars := range []int{wire.MaxElems + 1, 1 << 40} {
		rec, _ := get(t, s.handleHistogram, fmt.Sprintf("/api/histogram?view=fl&col=Distance&exact=1&bars=%d", bars))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too many bars") {
			t.Errorf("bars=%d: status %d, want 400: %s", bars, rec.Code, rec.Body.String())
		}
	}
	if rec, _ := get(t, s.handleHistogram, "/api/histogram?view=fl&col=Distance&exact=1&bars=10"); rec.Code != http.StatusOK {
		t.Fatalf("query after the rejected ones: %d %s", rec.Code, rec.Body.String())
	}
}

func TestFilterAndHeavyHittersEndpoints(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=10000,parts=2,seed=3")
	rec, body := get(t, s.handleFilter, `/api/filter?view=fl&name=ua&expr=Carrier=="UA"`)
	if rec.Code != http.StatusOK {
		t.Fatalf("filter: %d %s", rec.Code, rec.Body.String())
	}
	if body["rows"].(float64) <= 0 {
		t.Error("empty filter result")
	}
	req := httptest.NewRequest("GET", "/api/heavyhitters?view=ua&col=Carrier&k=5", nil)
	rec = httptest.NewRecorder()
	s.handleHeavyHitters(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("hh: %d", rec.Code)
	}
	var items []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0]["value"] != "UA" {
		t.Errorf("items = %v", items)
	}
}

// TestHeavyHittersKBudget: k goes from the URL to per-run counter state,
// so one past the result-row budget is a 413 before any scan — it used
// to size a map per run and take the process down with it — and the
// server answers the next query.
func TestHeavyHittersKBudget(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=10000,parts=2,seed=3")
	for _, q := range []string{
		"view=fl&col=DepDelay&k=2000000000",
		"view=fl&col=Origin&k=2000000000",
		"view=fl&col=Origin&k=2000000000&sampled=1",
		fmt.Sprintf("view=fl&col=Origin&k=%d", serve.DefaultMaxResultRows+1),
	} {
		if rec, _ := get(t, s.handleHeavyHitters, "/api/heavyhitters?"+q); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", q, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	s.handleHeavyHitters(rec, httptest.NewRequest("GET", "/api/heavyhitters?view=fl&col=Origin&k=10", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("query after the rejected ones: %d %s", rec.Code, rec.Body.String())
	}
	var items []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &items); err != nil || len(items) == 0 {
		t.Errorf("items = %v (err %v), want a non-empty answer", items, err)
	}
}

func TestSVGEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=4")
	req := httptest.NewRequest("GET", "/api/svg/histogram?view=fl&col=Distance", nil)
	rec := httptest.NewRecorder()
	s.handleHistogramSVG(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("svg: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Error("not SVG output")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type = %q", ct)
	}
}

func TestHeatmapEndpoint(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=10000,parts=2,seed=5")
	rec, body := get(t, s.handleHeatmap, "/api/heatmap?view=fl&x=DepDelay&y=ArrDelay")
	if rec.Code != http.StatusOK {
		t.Fatalf("heatmap: %d %s", rec.Code, rec.Body.String())
	}
	if body["counts"] == nil || body["rate"] == nil {
		t.Error("heatmap response incomplete")
	}
	rec, _ = get(t, s.handleHeatmap, "/api/heatmap?view=fl&x=NoCol&y=ArrDelay")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad column: %d", rec.Code)
	}
}

// TestStatusServeSection pins the JSON shape of the scheduler telemetry
// under "serve": the admission gauges and overload counters handlers
// and dashboards rely on.
func TestStatusServeSection(t *testing.T) {
	s := testServer(t)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=2000,parts=2,seed=1")
	get(t, s.handleMeta, "/api/meta?view=fl")
	rec, body := get(t, s.handleStatus, "/api/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	sv, ok := body["serve"].(map[string]any)
	if !ok {
		t.Fatalf("serve section missing: %v", body)
	}
	for _, key := range []string{
		"in_flight", "queued", "admitted", "shed", "queue_timeouts",
		"deadline_exceeded", "cancelled", "panics_recovered", "dedup_joins", "execs",
	} {
		if _, ok := sv[key]; !ok {
			t.Errorf("serve section missing %q: %v", key, sv)
		}
	}
	if sv["admitted"].(float64) == 0 {
		t.Errorf("no queries admitted: %v", sv)
	}
	views, ok := body["views"].(map[string]any)
	if !ok || views["loaded"].(float64) != 1 {
		t.Errorf("views section = %v", body["views"])
	}
}

// TestDerivedViewEviction pins the derived-view cap: past -max-views,
// the least-recently-used derived view is evicted, requests for it get
// a 404 naming the eviction, and loaded root views are never evicted.
func TestDerivedViewEviction(t *testing.T) {
	s := testServerViews(t, 2)
	get(t, s.handleLoad, "/api/load?name=fl&source=flights:rows=5000,parts=2,seed=6")
	for _, f := range []string{"a", "b"} {
		rec, _ := get(t, s.handleFilter, `/api/filter?view=fl&name=`+f+`&expr=Carrier=="UA"`)
		if rec.Code != http.StatusOK {
			t.Fatalf("filter %s: %d %s", f, rec.Code, rec.Body.String())
		}
	}
	// Touch "a" so "b" is the LRU victim of the next derivation.
	if rec, _ := get(t, s.handleMeta, "/api/meta?view=a"); rec.Code != http.StatusOK {
		t.Fatalf("meta a: %d", rec.Code)
	}
	if rec, _ := get(t, s.handleFilter, `/api/filter?view=fl&name=c&expr=Carrier=="AA"`); rec.Code != http.StatusOK {
		t.Fatal("filter c failed")
	}
	rec, _ := get(t, s.handleMeta, "/api/meta?view=b")
	if rec.Code != http.StatusNotFound {
		t.Errorf("evicted view: %d, want 404", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "evicted") {
		t.Errorf("404 body does not name the eviction: %q", rec.Body.String())
	}
	for _, name := range []string{"fl", "a", "c"} {
		if rec, _ := get(t, s.handleMeta, "/api/meta?view="+name); rec.Code != http.StatusOK {
			t.Errorf("view %s: %d, want 200", name, rec.Code)
		}
	}
	// Unknown views stay 400 — eviction is the only 404.
	if rec, _ := get(t, s.handleMeta, "/api/meta?view=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown view: %d, want 400", rec.Code)
	}
	// Re-deriving an evicted name resurrects it.
	if rec, _ := get(t, s.handleFilter, `/api/filter?view=fl&name=b&expr=Carrier=="UA"`); rec.Code != http.StatusOK {
		t.Fatal("re-derive b failed")
	}
	if rec, _ := get(t, s.handleMeta, "/api/meta?view=b"); rec.Code != http.StatusOK {
		t.Errorf("re-derived view b: %d", rec.Code)
	}
}

// TestHandlerPanicBecomes500 pins the render-path isolation: a panic in
// a handler becomes that request's 500 through the Recovered middleware
// and is counted in the scheduler stats.
func TestHandlerPanicBecomes500(t *testing.T) {
	s := testServer(t)
	h := s.sched.Recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("render bug")
	})
	req := httptest.NewRequest("GET", "/api/meta?view=x", nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if s.sched.Stats().PanicsRecovered != 1 {
		t.Error("panic not counted")
	}
}
