// Streaming-ingestion endpoints. Enabled with -ingest-dir (in-process
// mode only: sealed partitions live on the root's local disk), which
// roots an ingest.Store there and recovers every dataset under it on
// startup.
//
//	POST /api/ingest?op=create&name=ev&schema=ts:date,lat:double,msg:string
//	POST /api/ingest?op=append&name=ev     body {"rows": [[...], ...]}
//	POST /api/ingest?op=seal&name=ev
//	GET  /api/ingest?op=status[&name=ev]
//
//	POST /api/standing?op=register&name=ev&sketch=hist&col=lat&lo=-90&hi=90&bars=36
//	GET  /api/standing?op=get&name=ev&id=sq-1
//	GET  /api/standing?name=ev
//
// An append body is one JSON object with exactly one member, "rows":
//
//	body  = ws '{' ws "rows" ws ':' ws '[' ws [row (ws ',' ws row)*] ws ']' ws '}' ws
//	row   = '[' ws cell (ws ',' ws cell)* ws ']'   one cell per schema column
//	cell  = null | number | string                 null is a missing cell
//
// An int cell is a number with an integral value; a double cell any
// number; a string cell a string; a date cell an RFC 3339 string or a
// number of epoch milliseconds. Numbers follow the JSON grammar and
// parse as strconv.ParseFloat(s, 64); strings decode as encoding/json
// decodes them (escapes and surrogate pairs resolve, invalid UTF-8 and
// lone surrogates become U+FFFD). ingest.ReadAppendBody reads the body
// in one pass straight into typed columns, and answers 400 for a body
// with no rows, a member other than "rows" (the name is matched
// exactly), a second "rows", anything but whitespace after the object,
// a number out of float64 range, or a row of the wrong width or with a
// cell of the wrong kind. A rejected body appends nothing.
//
// Appended rows buffer in the dataset's open segment (lost on crash,
// by contract) until a seal — explicit via op=seal, or automatic past
// -segment-rows — makes them a durable immutable partition. Each seal
// advances the dataset's engine generation, so every query endpoint
// observes the new sealed prefix immediately while cached results for
// the old prefix stay valid for readers still holding them. Standing
// queries re-merge only the newly sealed partition.
//
// A sealed partition is served like any loaded .hvc file: mapped, its
// columns read through the server's column pool (so -pool-budget bounds
// them too) and only when a sketch touches them. The query after a seal
// maps the one new file; older seals keep their mappings and their
// column objects.
package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/ingest"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/table"
	"repro/internal/wire"
)

// attachIngest installs the ingest store and registers its telemetry
// group (section "ingest" in /api/status).
func (s *server) attachIngest(st *ingest.Store, m *ingest.Metrics) {
	s.ingest, s.ingestM = st, m
	m.Register(s.reg.Group("ingest", "ingest"))
}

// openIngestDatasets recovers every dataset under the store root and
// registers each as a loaded view named after the dataset.
func (s *server) openIngestDatasets() ([]string, error) {
	names, err := s.ingest.OpenAll()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if err := s.loadIngestView(name); err != nil {
			return names, fmt.Errorf("loading recovered dataset %q: %w", name, err)
		}
	}
	return names, nil
}

// loadIngestView makes the named ingest dataset queryable: one root
// view over the "ingest:" source, served like any loaded dataset.
func (s *server) loadIngestView(name string) error {
	v, err := s.sheet.Load(context.Background(), name, ingest.SourcePrefix+name)
	if err != nil {
		return err
	}
	s.views.putLoaded(name, v)
	return nil
}

func (s *server) ingestStore(w http.ResponseWriter) *ingest.Store {
	if s.ingest == nil {
		http.Error(w, "ingestion is disabled (start with -ingest-dir)", http.StatusBadRequest)
		return nil
	}
	return s.ingest
}

func (s *server) ingestDataset(w http.ResponseWriter, r *http.Request) *ingest.Dataset {
	st := s.ingestStore(w)
	if st == nil {
		return nil
	}
	d, err := st.Get(r.URL.Query().Get("name"))
	if err != nil {
		s.httpError(w, err)
		return nil
	}
	return d
}

// handleIngest is the dataset-lifecycle endpoint: create, append, seal,
// status.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	switch op := r.URL.Query().Get("op"); op {
	case "create":
		s.handleIngestCreate(w, r)
	case "append":
		s.handleIngestAppend(w, r)
	case "seal":
		s.handleIngestSeal(w, r)
	case "status", "":
		s.handleIngestStatus(w, r)
	default:
		http.Error(w, fmt.Sprintf("unknown op %q (want create, append, seal, status)", op), http.StatusBadRequest)
	}
}

// parseSchemaSpec parses "name:kind,name:kind" column specs.
func parseSchemaSpec(spec string) (*table.Schema, error) {
	if spec == "" {
		return nil, fmt.Errorf("need schema (e.g. schema=ts:date,lat:double)")
	}
	var cols []table.ColumnDesc
	for _, part := range strings.Split(spec, ",") {
		name, kindName, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad schema column %q (want name:kind)", part)
		}
		kind, err := table.ParseKind(kindName)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", name, err)
		}
		cols = append(cols, table.ColumnDesc{Name: name, Kind: kind})
	}
	return table.NewSchema(cols...), nil
}

func (s *server) handleIngestCreate(w http.ResponseWriter, r *http.Request) {
	st := s.ingestStore(w)
	if st == nil {
		return
	}
	q := r.URL.Query()
	name := q.Get("name")
	schema, err := parseSchemaSpec(q.Get("schema"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	if _, err := st.Create(name, schema); err != nil {
		s.httpError(w, err)
		return
	}
	if err := s.loadIngestView(name); err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"dataset": name, "schema": schema.Columns})
}

// appendPrealloc caps the body buffer sized from a declared
// Content-Length before any byte arrives; a longer body grows past it.
const appendPrealloc = 64 << 20

func (s *server) handleIngestAppend(w http.ResponseWriter, r *http.Request) {
	d := s.ingestDataset(w, r)
	if d == nil {
		return
	}
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 {
		body.Grow(int(min(n, appendPrealloc)) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(r.Body); err != nil {
		http.Error(w, fmt.Sprintf("reading append body: %v", err), http.StatusBadRequest)
		return
	}
	batch, err := ingest.ReadAppendBody(d.Schema(), body.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := d.Append(r.Context(), batch); err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"dataset": d.Name(), "appended": batch.NumRows(),
		"openRows": d.OpenRows(), "generation": d.Generation(),
	})
}

func (s *server) handleIngestSeal(w http.ResponseWriter, r *http.Request) {
	d := s.ingestDataset(w, r)
	if d == nil {
		return
	}
	p, err := d.Seal(r.Context())
	if err != nil {
		s.httpError(w, err)
		return
	}
	out := map[string]any{"dataset": d.Name(), "generation": d.Generation(), "sealed": p != nil}
	if p != nil {
		out["partition"] = p
	}
	writeJSON(w, out)
}

// ingestDatasetStatus is one dataset's section in op=status and in
// /api/status.
func ingestDatasetStatus(d *ingest.Dataset) map[string]any {
	return map[string]any{
		"generation": d.Generation(),
		"partitions": d.Partitions(),
		"openRows":   d.OpenRows(),
		"standing":   d.Standing(),
	}
}

func (s *server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	st := s.ingestStore(w)
	if st == nil {
		return
	}
	if name := r.URL.Query().Get("name"); name != "" {
		d, err := st.Get(name)
		if err != nil {
			s.httpError(w, err)
			return
		}
		writeJSON(w, ingestDatasetStatus(d))
		return
	}
	writeJSON(w, s.ingestStatus())
}

// ingestStatus renders the store-wide section shared by op=status and
// handleStatus.
func (s *server) ingestStatus() map[string]any {
	datasets := map[string]any{}
	for _, name := range s.ingest.Names() {
		d, err := s.ingest.Get(name)
		if err != nil {
			datasets[name] = map[string]any{"error": err.Error()}
			continue
		}
		datasets[name] = ingestDatasetStatus(d)
	}
	return map[string]any{
		"root":     s.ingest.Root(),
		"datasets": datasets,
		"appends":  s.ingestM.Appends.Load(), "appendedRows": s.ingestM.AppendedRows.Load(),
		"seals": s.ingestM.Seals.Load(), "sealedRows": s.ingestM.SealedRows.Load(),
		"recoveries":      s.ingestM.Recoveries.Load(),
		"tornTruncated":   s.ingestM.TornTruncated.Load(),
		"orphansRemoved":  s.ingestM.OrphansRemoved.Load(),
		"standingUpdates": s.ingestM.StandingUpdates.Load(),
	}
}

// handleStanding manages standing queries: registered once, their
// result re-merged incrementally on every seal.
func (s *server) handleStanding(w http.ResponseWriter, r *http.Request) {
	d := s.ingestDataset(w, r)
	if d == nil {
		return
	}
	switch op := r.URL.Query().Get("op"); op {
	case "register":
		s.handleStandingRegister(w, r, d)
	case "get":
		s.handleStandingGet(w, r, d)
	case "list", "":
		writeJSON(w, map[string]any{"dataset": d.Name(), "standing": d.Standing()})
	default:
		http.Error(w, fmt.Sprintf("unknown op %q (want register, get, list)", op), http.StatusBadRequest)
	}
}

// standingSketch builds the sketch named by the request: hist (needs
// lo, hi, bars), distinct, or range, each over column col.
func standingSketch(q map[string][]string, d *ingest.Dataset) (sketch.Sketch, error) {
	get := func(key string) string {
		if v, ok := q[key]; ok && len(v) > 0 {
			return v[0]
		}
		return ""
	}
	col := get("col")
	cd, err := d.Schema().Column(col)
	if err != nil {
		return nil, err
	}
	switch kind := get("sketch"); kind {
	case "hist", "":
		lo, err1 := strconv.ParseFloat(get("lo"), 64)
		hi, err2 := strconv.ParseFloat(get("hi"), 64)
		if err1 != nil || err2 != nil || hi <= lo {
			return nil, fmt.Errorf("hist needs numeric lo < hi (got lo=%q hi=%q)", get("lo"), get("hi"))
		}
		bars, _ := strconv.Atoi(get("bars"))
		if bars <= 0 {
			bars = 20
		}
		// Register sizes the query's tallies from bars under the dataset
		// lock: bound it as /api/histogram does, before anything allocates.
		if bars > wire.MaxElems {
			return nil, fmt.Errorf("%w: %d exceeds the %d-bucket limit", spreadsheet.ErrTooManyBars, bars, wire.MaxElems)
		}
		if !cd.Kind.Numeric() {
			return nil, fmt.Errorf("column %q is not numeric", col)
		}
		return &sketch.HistogramSketch{Col: col, Buckets: sketch.NumericBuckets(cd.Kind, lo, hi, bars)}, nil
	case "distinct":
		return &sketch.DistinctCountSketch{Col: col}, nil
	case "range":
		if !cd.Kind.Numeric() {
			return nil, fmt.Errorf("column %q is not numeric", col)
		}
		return &sketch.RangeSketch{Col: col}, nil
	default:
		return nil, fmt.Errorf("unknown sketch %q (want hist, distinct, range)", kind)
	}
}

func (s *server) handleStandingRegister(w http.ResponseWriter, r *http.Request, d *ingest.Dataset) {
	sk, err := standingSketch(r.URL.Query(), d)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q, err := d.Register(sk)
	if err != nil {
		s.httpError(w, err)
		return
	}
	res, upTo, _ := q.Result()
	writeJSON(w, map[string]any{"id": q.ID(), "sketch": sk.Name(), "upTo": upTo, "result": res})
}

func (s *server) handleStandingGet(w http.ResponseWriter, r *http.Request, d *ingest.Dataset) {
	id := r.URL.Query().Get("id")
	q, ok := d.StandingByID(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no standing query %q on dataset %q", id, d.Name()), http.StatusNotFound)
		return
	}
	res, upTo, err := q.Result()
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": id, "sketch": q.Sketch().Name(), "upTo": upTo, "result": res})
}
