package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/wire"
)

// testIngestServer builds an in-process server with streaming ingestion
// on an in-memory filesystem, wired exactly like main: store loader
// wrapping the storage loader, seal hook advancing the engine
// generation.
func testIngestServer(t *testing.T, segmentRows int) *server {
	t.Helper()
	flights.Register()
	cfg := engine.Config{AggregationWindow: -1}
	im := &ingest.Metrics{}
	var root *engine.Root
	st := ingest.NewStore("root", ingest.StoreConfig{
		FS:          ingest.NewMemFS(),
		SegmentRows: segmentRows,
		Metrics:     im,
		OnSeal: func(name string, _ ingest.Partition) {
			if root != nil {
				root.Advance(name)
			}
		},
	})
	t.Cleanup(func() { st.Close() })
	loader := st.WrapLoader(storage.NewLoader(cfg, 0, nil), cfg)
	root = engine.NewRoot(loader)
	s := newServer(root, serve.Config{Deadline: -1}, 0)
	s.attachEnv(nil, nil)
	s.attachIngest(st, im)
	return s
}

// post drives a handler with a POST carrying a JSON body.
func post(t *testing.T, h http.HandlerFunc, url, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h(rec, req)
	var out map[string]any
	if rec.Code == http.StatusOK && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, out
}

// TestIngestLifecycleEndpoints walks the full dataset lifecycle over
// HTTP: create, append, seal, query through the ordinary chart
// endpoints, append more, and confirm queries track the growing sealed
// prefix through the generation counter.
func TestIngestLifecycleEndpoints(t *testing.T) {
	s := testIngestServer(t, -1)
	rec, body := post(t, s.handleIngest, "/api/ingest?op=create&name=ev&schema=v:double,tag:string", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	if body["dataset"] != "ev" {
		t.Fatalf("create body = %v", body)
	}

	rec, body = post(t, s.handleIngest, "/api/ingest?op=append&name=ev",
		`{"rows": [[1.0, "a"], [2.0, "b"], [3.0, "a"], [null, "c"]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	if body["openRows"].(float64) != 4 || body["generation"].(float64) != 0 {
		t.Fatalf("append body = %v", body)
	}

	rec, body = post(t, s.handleIngest, "/api/ingest?op=seal&name=ev", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("seal: %d %s", rec.Code, rec.Body.String())
	}
	if body["sealed"] != true || body["generation"].(float64) != 1 {
		t.Fatalf("seal body = %v", body)
	}

	// The sealed rows are queryable through the standard chart endpoints.
	rec, _ = get(t, s.handleHistogram, "/api/histogram?view=ev&col=v&bars=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("histogram: %d %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var final struct {
		Counts  []float64 `json:"counts"`
		Missing float64   `json:"missing"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	sum := final.Missing
	for _, c := range final.Counts {
		sum += c
	}
	if sum != 4 {
		t.Fatalf("histogram covers %v rows, want 4: %+v", sum, final)
	}

	// A second append+seal advances the generation; the same query then
	// sees 6 rows — the cache must not serve the 4-row answer.
	post(t, s.handleIngest, "/api/ingest?op=append&name=ev", `{"rows": [[5.5, "d"], [6.5, "d"]]}`)
	rec, body = post(t, s.handleIngest, "/api/ingest?op=seal&name=ev", "")
	if rec.Code != http.StatusOK || body["generation"].(float64) != 2 {
		t.Fatalf("second seal: %d %v", rec.Code, body)
	}
	rec, _ = get(t, s.handleHistogram, "/api/histogram?view=ev&col=v&bars=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("histogram after growth: %d %s", rec.Code, rec.Body.String())
	}
	lines = strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	sum = final.Missing
	for _, c := range final.Counts {
		sum += c
	}
	if sum != 6 {
		t.Fatalf("histogram after growth covers %v rows, want 6", sum)
	}

	// Status reports the dataset, its partitions, and the moved counters.
	rec, body = get(t, s.handleIngest, "/api/ingest?op=status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d %s", rec.Code, rec.Body.String())
	}
	ds := body["datasets"].(map[string]any)["ev"].(map[string]any)
	if parts := ds["partitions"].([]any); len(parts) != 2 {
		t.Fatalf("status partitions = %v", parts)
	}
	if body["seals"].(float64) != 2 || body["appendedRows"].(float64) != 6 {
		t.Fatalf("status counters = %v", body)
	}
}

// TestIngestEndpointErrors pins the 400 surface: malformed schemas,
// rows that don't match the schema, unknown datasets and ops, and a
// server started without -ingest-dir.
func TestIngestEndpointErrors(t *testing.T) {
	s := testIngestServer(t, -1)
	for _, tc := range []struct{ name, url, body string }{
		{"bad schema", "/api/ingest?op=create&name=x&schema=v", ""},
		{"bad kind", "/api/ingest?op=create&name=x&schema=v:blob", ""},
		{"no schema", "/api/ingest?op=create&name=x", ""},
		{"bad name", "/api/ingest?op=create&name=a/b&schema=v:int", ""},
		{"unknown op", "/api/ingest?op=zap&name=x", ""},
		{"unknown dataset", "/api/ingest?op=seal&name=ghost", ""},
	} {
		rec, _ := post(t, s.handleIngest, tc.url, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
		}
	}
	if rec, _ := post(t, s.handleIngest, "/api/ingest?op=create&name=ev&schema=v:int,w:date", ""); rec.Code != http.StatusOK {
		t.Fatalf("create: %d", rec.Code)
	}
	for _, tc := range []struct{ name, body string }{
		{"no rows", `{"rows": []}`},
		{"not json", `rows`},
		{"wrong width", `{"rows": [[1]]}`},
		{"wrong type", `{"rows": [["x", 0]]}`},
		{"fractional int", `{"rows": [[1.5, 0]]}`},
		{"bad date", `{"rows": [[1, "yesterday"]]}`},
	} {
		rec, _ := post(t, s.handleIngest, "/api/ingest?op=append&name=ev", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("append %s: %d, want 400 (%s)", tc.name, rec.Code, rec.Body.String())
		}
	}
	// Dates arrive as RFC 3339 strings or epoch millis.
	rec, _ := post(t, s.handleIngest, "/api/ingest?op=append&name=ev",
		`{"rows": [[1, "2019-07-01T10:00:00Z"], [2, 1561975200000]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("date append: %d %s", rec.Code, rec.Body.String())
	}
}

// TestEmptyIngestDatasetIsBadRequest: before its first seal an ingest
// dataset has no rows and no schema, so meta, load and chart requests
// over it answer the same plain-text 400, never a 500.
func TestEmptyIngestDatasetIsBadRequest(t *testing.T) {
	s := testIngestServer(t, -1)
	if rec, _ := post(t, s.handleIngest, "/api/ingest?op=create&name=ev&schema=ts:date,lat:double,msg:string", ""); rec.Code != http.StatusOK {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	for _, url := range []string{
		"/api/meta?view=ev",
		"/api/load?name=ev2&source=" + ingest.SourcePrefix + "ev",
		"/api/histogram?view=ev&col=lat",
	} {
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if body := rec.Body.String(); rec.Code != http.StatusBadRequest || !strings.Contains(body, "holds no rows yet") {
			t.Errorf("%s: %d %q, want 400 holds no rows yet", url, rec.Code, body)
		}
	}
}

// TestIngestDisabledWithout404 pins the disabled mode: without
// -ingest-dir the endpoints answer 400 naming the flag.
func TestIngestDisabled(t *testing.T) {
	s := testServer(t)
	for _, url := range []string{"/api/ingest?op=create&name=x&schema=v:int", "/api/standing?name=x"} {
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest("POST", url, nil))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "-ingest-dir") {
			t.Errorf("%s: %d %q, want 400 naming -ingest-dir", url, rec.Code, rec.Body.String())
		}
	}
}

// TestIngestAutoSeal pins the -segment-rows threshold over HTTP: the
// third append crosses it and seals without an explicit op=seal.
func TestIngestAutoSeal(t *testing.T) {
	s := testIngestServer(t, 5)
	post(t, s.handleIngest, "/api/ingest?op=create&name=ev&schema=v:int", "")
	for i := 0; i < 3; i++ {
		rec, _ := post(t, s.handleIngest, "/api/ingest?op=append&name=ev", `{"rows": [[1], [2]]}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	rec, body := get(t, s.handleIngest, "/api/ingest?op=status&name=ev")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	if body["generation"].(float64) != 1 || body["openRows"].(float64) != 0 {
		t.Fatalf("auto-seal did not trigger: %v", body)
	}
	if parts := body["partitions"].([]any); len(parts) != 1 {
		t.Fatalf("partitions = %v", parts)
	}
}

// TestStandingEndpoints registers a standing histogram, grows the
// dataset, and watches the incrementally re-merged result track every
// seal.
func TestStandingEndpoints(t *testing.T) {
	s := testIngestServer(t, -1)
	post(t, s.handleIngest, "/api/ingest?op=create&name=ev&schema=v:double", "")
	rec, body := post(t, s.handleStanding, "/api/standing?op=register&name=ev&sketch=hist&col=v&lo=0&hi=10&bars=5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	id := body["id"].(string)
	if id == "" || body["upTo"].(float64) != 0 {
		t.Fatalf("register body = %v", body)
	}

	counts := func() (float64, float64) {
		rec, body := get(t, s.handleStanding, "/api/standing?op=get&name=ev&id="+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("get: %d %s", rec.Code, rec.Body.String())
		}
		var sum float64
		for _, c := range body["result"].(map[string]any)["Counts"].([]any) {
			sum += c.(float64)
		}
		return sum, body["upTo"].(float64)
	}
	post(t, s.handleIngest, "/api/ingest?op=append&name=ev", `{"rows": [[1.0], [2.0], [3.0]]}`)
	post(t, s.handleIngest, "/api/ingest?op=seal&name=ev", "")
	if sum, upTo := counts(); sum != 3 || upTo != 1 {
		t.Fatalf("after seal 1: sum=%v upTo=%v", sum, upTo)
	}
	post(t, s.handleIngest, "/api/ingest?op=append&name=ev", `{"rows": [[4.0], [5.0]]}`)
	post(t, s.handleIngest, "/api/ingest?op=seal&name=ev", "")
	if sum, upTo := counts(); sum != 5 || upTo != 2 {
		t.Fatalf("after seal 2: sum=%v upTo=%v", sum, upTo)
	}

	// A bucket count past wire.MaxElems is a 400 before Register sizes
	// any tallies; the registrations after it still answer.
	for _, bars := range []int{wire.MaxElems + 1, 1 << 40} {
		url := fmt.Sprintf("/api/standing?op=register&name=ev&sketch=hist&col=v&lo=0&hi=10&bars=%d", bars)
		if rec, _ := post(t, s.handleStanding, url, ""); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too many bars") {
			t.Errorf("bars=%d: status %d, want 400: %s", bars, rec.Code, rec.Body.String())
		}
	}
	// distinct and range register too; unknown sketch and column do not.
	if rec, _ := post(t, s.handleStanding, "/api/standing?op=register&name=ev&sketch=distinct&col=v", ""); rec.Code != http.StatusOK {
		t.Errorf("distinct register: %d", rec.Code)
	}
	if rec, _ := post(t, s.handleStanding, "/api/standing?op=register&name=ev&sketch=range&col=v", ""); rec.Code != http.StatusOK {
		t.Errorf("range register: %d", rec.Code)
	}
	if rec, _ := post(t, s.handleStanding, "/api/standing?op=register&name=ev&sketch=median&col=v", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown sketch: %d", rec.Code)
	}
	if rec, _ := post(t, s.handleStanding, "/api/standing?op=register&name=ev&sketch=hist&col=ghost&lo=0&hi=1", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown column: %d", rec.Code)
	}
	if rec, _ := get(t, s.handleStanding, "/api/standing?op=get&name=ev&id=sq-99"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown standing id: %d", rec.Code)
	}
	rec, body = get(t, s.handleStanding, "/api/standing?name=ev")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	if got := len(body["standing"].([]any)); got != 3 {
		t.Errorf("listed %d standing queries, want 3", got)
	}
}

// TestDrainGate pins the shutdown 503: once draining flips, every
// request through the top-level handler is refused with Retry-After.
func TestDrainGate(t *testing.T) {
	s := testIngestServer(t, -1)
	h := s.handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-drain status: %d", rec.Code)
	}
	s.draining.Store(true)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/status", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining status: %d (Retry-After %q), want 503", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestShutdownSealsOpenSegments pins the shutdown contract around
// buffered rows: closing the store (as the SIGTERM path does) seals
// them durably, and a store reopened over the same filesystem recovers
// them.
func TestShutdownSealsOpenSegments(t *testing.T) {
	flights.Register()
	fs := ingest.NewMemFS()
	cfg := engine.Config{AggregationWindow: -1}
	st := ingest.NewStore("root", ingest.StoreConfig{FS: fs, SegmentRows: -1})
	var root *engine.Root
	_ = root
	loader := st.WrapLoader(storage.NewLoader(cfg, 0, nil), cfg)
	root = engine.NewRoot(loader)
	s := newServer(root, serve.Config{Deadline: -1}, 0)
	s.attachEnv(nil, nil)
	s.attachIngest(st, &ingest.Metrics{})

	post(t, s.handleIngest, "/api/ingest?op=create&name=ev&schema=v:int", "")
	if rec, _ := post(t, s.handleIngest, "/api/ingest?op=append&name=ev", `{"rows": [[7], [8]]}`); rec.Code != http.StatusOK {
		t.Fatalf("append: %d", rec.Code)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := ingest.NewStore("root", ingest.StoreConfig{FS: fs})
	defer re.Close()
	d, err := re.Get("ev")
	if err != nil {
		t.Fatal(err)
	}
	parts := d.Partitions()
	if len(parts) != 1 || parts[0].Rows != 2 {
		t.Fatalf("recovered partitions = %+v, want one 2-row partition", parts)
	}
}
