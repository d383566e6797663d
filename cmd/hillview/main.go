// Command hillview runs the Hillview root: the web server of Figure 1.
// It connects to worker servers (or hosts the data itself when no
// workers are given), exposes the spreadsheet as an HTTP JSON API, and
// streams progressive results over chunked NDJSON — the stdlib stand-in
// for the paper's WebSocket streaming RPC (§6).
//
// Usage:
//
//	hillview -http :8080 [-workers host1:8100,host2:8100]
//
// Endpoints (all GET, JSON responses):
//
//	/api/load?name=fl&source=flights:rows=1000000     load a dataset
//	/api/meta?view=fl                                 schema + row count
//	/api/table?view=fl&order=+DepDelay&k=20           tabular page
//	/api/histogram?view=fl&col=DepDelay&cdf=1         streams partials (NDJSON)
//	/api/heatmap?view=fl&x=DepDelay&y=ArrDelay        heat map summary
//	/api/heavyhitters?view=fl&col=Origin&k=20         heavy hitters
//	/api/filter?view=fl&name=ua&expr=Carrier=="UA"    derive a view
//	/api/status                                       cache, column pool, wire, cluster + scheduler stats
//	/api/svg/histogram?view=fl&col=DepDelay           rendered SVG
//
// Without exact=1 a histogram samples at a display-derived rate, or
// scans every row where that is cheaper (sketch.HistogramRate); the
// response's "rate" says which ran. exact=1 answers — bars and CDF alike
// — are cached, so repeating the request costs no scan.
//
// # Overload safety
//
// Every query runs through the serving-layer scheduler (internal/serve)
// rather than hitting the engine directly. Admission control holds at
// most -max-inflight queries executing with -queue-depth more waiting;
// a query arriving past both is rejected immediately. Each query gets
// the -query-deadline server deadline (callers with a tighter deadline
// keep theirs), identical concurrent cacheable queries share one
// execution, a panic anywhere in a query or render path becomes a 500
// for that request only, and client disconnects cancel the query via
// http.Request.Context — mid-scan, at the leaf.
//
// # Scan batching
//
// A cacheable query is admitted by one rule: the computation cache is
// looked up first (a hit takes no slot and waits for nothing), then an
// identical query already in flight is joined, and only then is it
// batched and scanned. On an idle dataset it starts at once. Behind a
// busy one — another such query on the same dataset waiting or scanning —
// it waits up to -batch-window (default 1ms; 0 never waits) for
// companions, and those gathered coalesce into one composite leaf pass
// (sketch.MultiSketch): the table's micropartitions are walked once and
// every member sketch folds from the shared stream, with each
// subscriber's partials and final result demuxed back out —
// bit-identical to a solo run, because the batch shares the solo path's
// partitions, per-partition sampling seeds, and merge order. A chart that needs several
// sketches (bars and CDF; the axis ranges of a heat map) sends them as
// one group, which is such a pass from the start. A dashboard opening
// eight charts over one idle table costs two scans, not eight: the first
// chart starts at once and the other seven share one pass behind it.
// Abandoning one batched query does not disturb the others: its member
// still folds with the pass, and every member, abandoned or not, is
// cached under its own key, as if it had run alone. /api/status reports
// the batching telemetry: batches_formed, batch_members (total members
// across batches), and scans_saved (members minus batches).
//
// The error contract handlers return:
//
//	429 Too Many Requests   shed at admission (Retry-After is set)
//	503 Service Unavailable deadline expired while queued (Retry-After is set)
//	504 Gateway Timeout     deadline expired while executing
//	413 Content Too Large   requested page or heavy-hitters k exceeds the result-row budget
//	500 Internal Server Error  recovered panic (that query only)
//	404 Not Found           view evicted by the derived-view cap (-max-views)
//	400 Bad Request         semantic errors: unknown view, bad column, bad expr,
//	                        more histogram or standing-query bars than wire.MaxElems
//
// Derived views (filters, zooms) are soft state: at most -max-views of
// them are kept, evicted least-recently-used; an evicted view's dataset
// is dropped from the engine registry and later requests for it get a
// 404 naming the eviction, after which the client re-derives it.
package main

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// DefaultMaxViews caps derived views kept per server (-max-views).
const DefaultMaxViews = 64

type server struct {
	sheet *spreadsheet.Sheet
	sched *serve.Scheduler
	pool  *colstore.Pool   // nil in cluster mode (pools live on workers)
	clu   *cluster.Cluster // nil in in-process mode
	views *viewRegistry

	// Streaming ingestion (nil unless -ingest-dir): the store owns the
	// crash-safe datasets, ingestM their shared telemetry. draining flips
	// on SIGTERM so requests arriving after the drain starts get a 503.
	ingest   *ingest.Store
	ingestM  *ingest.Metrics
	draining atomic.Bool

	// Observability: every subsystem's telemetry registers in reg (the
	// /metrics endpoint renders it; handleStatus mirrors it per group
	// section), tracer owns the finished-trace ring behind /api/trace/
	// and the slow-query log.
	reg         *obs.Registry
	tracer      *obs.Tracer
	httpReqs    *obs.Counter
	httpLatency *obs.Histogram
}

func main() {
	httpAddr := flag.String("http", ":8080", "HTTP listen address")
	workers := flag.String("workers", "", "comma-separated worker addresses (empty = in-process engine)")
	micro := flag.Int("micro", storage.DefaultMicroRows, "micropartition size for in-process mode")
	budget := flag.String("pool-budget", "", "column pool byte budget for in-process mode, loaded files and sealed ingest partitions alike, e.g. 256M (default $HILLVIEW_POOL_BUDGET; 0 = unlimited)")
	replication := flag.Int("replication", 1, "replicas per partition group (workers are split into len(workers)/R groups)")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "worker ping interval; 0 disables the health monitor")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 2×GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", serve.DefaultQueueDepth, "queries allowed to wait for a slot before shedding (negative = no queue)")
	queryDeadline := flag.Duration("query-deadline", serve.DefaultDeadline, "server-side query deadline (negative = none)")
	maxResultRows := flag.Int("max-result-rows", serve.DefaultMaxResultRows, "per-query result-row budget for table pages and heavy-hitters k (negative = unlimited)")
	batchWindow := flag.Duration("batch-window", serve.DefaultBatchWindow, "longest a cacheable query waits behind a busy dataset for others to share its leaf pass with; a query on an idle dataset never waits (0 = never wait)")
	maxViews := flag.Int("max-views", DefaultMaxViews, "derived views kept before LRU eviction (0 = unlimited)")
	slowQuery := flag.Duration("slow-query", time.Second, "log one structured line per query slower than this (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "debug listen address serving /debug/pprof and /metrics (empty = disabled)")
	ingestDir := flag.String("ingest-dir", "", "root directory for crash-safe streaming ingest datasets (in-process mode only; empty = disabled)")
	segmentRows := flag.Int("segment-rows", ingest.DefaultSegmentRows, "auto-seal open ingest segments past this many buffered rows (negative = explicit seals only)")
	flag.Parse()

	flights.Register()
	cfg := engine.Config{}
	var (
		loader engine.Loader
		pool   *colstore.Pool
		clu    *cluster.Cluster
		st     *ingest.Store
		im     *ingest.Metrics
		root   *engine.Root
	)
	if *workers == "" {
		budgetBytes, err := storage.PoolBudget(*budget)
		if err != nil {
			log.Fatalf("hillview: %v", err)
		}
		pool = colstore.NewPool(budgetBytes)
		loader = storage.NewLoader(cfg, *micro, pool)
		log.Printf("hillview: in-process engine (pool budget %d bytes)", budgetBytes)
		if *ingestDir != "" {
			// Sealing a partition advances the dataset's engine generation:
			// new queries observe the grown prefix, cached results for the
			// old prefix stay keyed to the old generation.
			im = &ingest.Metrics{}
			st = ingest.NewStore(*ingestDir, ingest.StoreConfig{
				SegmentRows: *segmentRows,
				Metrics:     im,
				Pool:        pool,
				OnSeal: func(name string, _ ingest.Partition) {
					if root != nil {
						root.Advance(name)
					}
				},
			})
			loader = st.WrapLoader(loader, cfg)
		}
	} else {
		if *ingestDir != "" {
			log.Fatalf("hillview: -ingest-dir requires the in-process engine (drop -workers); sealed partitions live on this server's disk")
		}
		addrs := strings.Split(*workers, ",")
		c, err := cluster.ConnectOptions(nil, addrs, cfg, cluster.Options{
			Replication:    *replication,
			HealthInterval: *healthEvery,
		})
		if err != nil {
			log.Fatalf("hillview: %v", err)
		}
		defer c.Close()
		loader = c.Loader()
		clu = c
		st := c.Stats()
		log.Printf("hillview: connected to %d workers (%d groups × %d replicas)",
			len(addrs), st.Groups, st.Replication)
	}
	root = engine.NewRoot(loader)
	s := newServer(root, serve.Config{
		MaxInFlight:   *maxInFlight,
		QueueDepth:    *queueDepth,
		Deadline:      *queryDeadline,
		MaxResultRows: *maxResultRows,
		BatchWindow:   *batchWindow,
	}, *maxViews)
	s.attachEnv(pool, clu)
	if st != nil {
		s.attachIngest(st, im)
		names, err := s.openIngestDatasets()
		if err != nil {
			log.Fatalf("hillview: %v", err)
		}
		log.Printf("hillview: ingest store at %s (%d datasets recovered)", *ingestDir, len(names))
	}
	s.tracer.SetSlowQuery(*slowQuery)
	if *debugAddr != "" {
		// The debug mux: net/http/pprof registered itself on the default
		// mux via its import; /metrics rides along so operators scrape and
		// profile on one out-of-band port.
		http.HandleFunc("/metrics", s.handleMetrics)
		go func() { log.Printf("hillview: debug server: %v", http.ListenAndServe(*debugAddr, nil)) }()
		log.Printf("hillview: debug server (pprof, /metrics) on %s", *debugAddr)
	}
	sc := s.sched.Config()
	log.Printf("hillview: admission %d in-flight + %d queued, deadline %v, view cap %d, slow-query %v",
		sc.MaxInFlight, sc.QueueDepth, sc.Deadline, *maxViews, *slowQuery)
	log.Printf("hillview: listening on %s", *httpAddr)

	// Graceful shutdown: SIGTERM/SIGINT starts a drain — in-flight
	// requests finish (bounded by the query deadline), late arrivals get
	// 503 + Retry-After, open ingest segments seal durably — then exit 0.
	srv := &http.Server{Addr: *httpAddr, Handler: s.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errCh:
		log.Fatalf("hillview: %v", err)
	case sig := <-stop:
		drain := *queryDeadline
		if drain <= 0 {
			drain = 10 * time.Second
		}
		log.Printf("hillview: %v: draining in-flight requests (up to %v)", sig, drain)
		s.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("hillview: drain incomplete: %v", err)
		}
		if s.ingest != nil {
			if err := s.ingest.Close(); err != nil {
				log.Printf("hillview: sealing open ingest segments: %v", err)
			}
		}
		log.Printf("hillview: shutdown complete")
	}
}

// handler wraps the mux with the drain gate: once shutdown starts,
// every late request is refused with 503 + Retry-After instead of
// racing the closing subsystems.
func (s *server) handler() http.Handler {
	mux := s.mux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server is draining for shutdown", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// newServer wires the scheduler between the spreadsheet and the root:
// every vizketch the sheet runs goes through admission control. All
// environment-independent telemetry registers with the obs registry
// here; attachEnv adds the groups whose subsystems depend on the
// deployment mode (column pool, cluster, wire).
func newServer(root *engine.Root, cfg serve.Config, maxViews int) *server {
	sched := serve.New(root, cfg)
	s := &server{
		sheet:  spreadsheet.NewWithRunner(root, sched),
		sched:  sched,
		views:  newViewRegistry(maxViews, root.Drop),
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(0, time.Second, log.Printf),
	}

	hg := s.reg.Group("http", "http")
	s.httpReqs = hg.Counter("requests", "HTTP requests on query endpoints")
	s.httpLatency = hg.Histogram("request_duration", "HTTP request latency on query endpoints")

	sg := s.reg.Group("serve", "serve")
	stats := func(f func(serve.Stats) int64) func() int64 {
		return func() int64 { return f(s.sched.Stats()) }
	}
	sg.GaugeFunc("in_flight", "queries executing now", stats(func(st serve.Stats) int64 { return st.InFlight }))
	sg.GaugeFunc("queued", "queries waiting for a slot", stats(func(st serve.Stats) int64 { return st.Queued }))
	sg.CounterFunc("admitted", "queries granted an execution slot", stats(func(st serve.Stats) int64 { return st.Admitted }))
	sg.CounterFunc("shed", "queries rejected at admission", stats(func(st serve.Stats) int64 { return st.Shed }))
	sg.CounterFunc("queue_timeouts", "queries whose deadline expired while queued", stats(func(st serve.Stats) int64 { return st.QueueTimeouts }))
	sg.CounterFunc("deadline_exceeded", "queries whose deadline expired while executing", stats(func(st serve.Stats) int64 { return st.DeadlineExceeded }))
	sg.CounterFunc("cancelled", "queries cancelled by their caller", stats(func(st serve.Stats) int64 { return st.Cancelled }))
	sg.CounterFunc("panics_recovered", "query panics converted to errors", stats(func(st serve.Stats) int64 { return st.PanicsRecovered }))
	sg.CounterFunc("dedup_joins", "queries joined to an identical in-flight execution", stats(func(st serve.Stats) int64 { return st.DedupJoins }))
	sg.CounterFunc("execs", "underlying sketch executions", stats(func(st serve.Stats) int64 { return st.Execs }))
	sg.CounterFunc("batches_formed", "scan batches formed", stats(func(st serve.Stats) int64 { return st.BatchesFormed }))
	sg.CounterFunc("batch_members", "member queries across all batches", stats(func(st serve.Stats) int64 { return st.BatchMembers }))
	sg.CounterFunc("scans_saved", "leaf passes avoided by batching", stats(func(st serve.Stats) int64 { return st.ScansSaved }))
	sg.RegisterHistogram("query_duration", "end-to-end RunSketch latency", sched.LatencyHistogram())

	eg := s.reg.Group("engine", "engine")
	eg.CounterFunc("replays", "redo-log replay executions", root.ReplayCounter().Load)
	eg.CounterFunc("partials_emitted", "partial results delivered engine-wide", engine.PartialsCounter().Load)

	cg := s.reg.Group("computation_cache", "computationCache")
	cg.CounterFunc("hits", "computation cache hits", root.Cache().HitCounter().Load)
	cg.CounterFunc("misses", "computation cache misses", root.Cache().MissCounter().Load)
	cg.GaugeFunc("entries", "computation cache entries", func() int64 { return int64(root.Cache().Len()) })

	vg := s.reg.Group("views", "views")
	vg.GaugeFunc("loaded", "loaded root views", func() int64 { l, _, _ := s.views.counts(); return int64(l) })
	vg.GaugeFunc("derived", "derived views held", func() int64 { _, d, _ := s.views.counts(); return int64(d) })
	vg.GaugeFunc("evicted", "derived views evicted by the cap", func() int64 { _, _, e := s.views.counts(); return int64(e) })

	tg := s.reg.Group("traces", "traces")
	tg.CounterFunc("started", "traces started at HTTP ingress", s.tracer.Started)
	tg.CounterFunc("finished", "traces finished into the ring", s.tracer.Finished)
	tg.CounterFunc("slow_queries", "slow-query log lines emitted", s.tracer.SlowQueries)
	tg.GaugeFunc("ring", "finished traces held for /api/trace", func() int64 { return int64(s.tracer.RingLen()) })

	return s
}

// attachEnv installs the deployment-dependent subsystems and registers
// their telemetry: the in-process column pool, or the cluster's wire
// and health counters. Either may be nil.
func (s *server) attachEnv(pool *colstore.Pool, clu *cluster.Cluster) {
	s.pool, s.clu = pool, clu
	if pool != nil {
		g := s.reg.Group("column_pool", "columnPool")
		g.GaugeFunc("resident_bytes", "column pool resident bytes", func() int64 { return pool.Stats().Resident })
		g.GaugeFunc("budget_bytes", "column pool byte budget", func() int64 { return pool.Stats().Budget })
		g.GaugeFunc("columns", "columns resident in the pool", func() int64 { return int64(pool.Stats().Columns) })
		g.GaugeFunc("pinned", "columns pinned by running scans", func() int64 { return int64(pool.Stats().Pinned) })
		g.CounterFunc("hits", "column pool hits", func() int64 { return pool.Stats().Hits })
		g.CounterFunc("misses", "column pool misses", func() int64 { return pool.Stats().Misses })
		g.CounterFunc("evictions", "column pool evictions", func() int64 { return pool.Stats().Evictions })
	}
	if clu != nil {
		wire := func(f func(cluster.WireStats) int64) func() int64 {
			return func() int64 {
				var sum int64
				for _, ws := range clu.WireStats() {
					sum += f(ws)
				}
				return sum
			}
		}
		wg := s.reg.Group("wire", "wire")
		wg.CounterFunc("bytes_in", "bytes received from workers", wire(func(ws cluster.WireStats) int64 { return ws.BytesIn }))
		wg.CounterFunc("bytes_out", "bytes sent to workers", wire(func(ws cluster.WireStats) int64 { return ws.BytesOut }))
		wg.CounterFunc("frames_in", "frames received from workers", wire(func(ws cluster.WireStats) int64 { return ws.FramesIn }))
		wg.CounterFunc("frames_out", "frames sent to workers", wire(func(ws cluster.WireStats) int64 { return ws.FramesOut }))
		wg.CounterFunc("encode_ns", "nanoseconds spent encoding frames", wire(func(ws cluster.WireStats) int64 { return ws.EncodeNS }))
		wg.CounterFunc("decode_ns", "nanoseconds spent decoding frames", wire(func(ws cluster.WireStats) int64 { return ws.DecodeNS }))

		g := s.reg.Group("cluster", "cluster")
		g.GaugeFunc("groups", "partition groups", func() int64 { return int64(clu.Stats().Groups) })
		g.GaugeFunc("replication", "replicas per group", func() int64 { return int64(clu.Stats().Replication) })
		g.GaugeFunc("workers", "known workers", func() int64 { return int64(len(clu.Stats().Workers)) })
		g.CounterFunc("retries", "failover retries", func() int64 { return clu.Stats().Retries })
		g.CounterFunc("groups_lost", "queries that lost a whole replica group", func() int64 { return clu.Stats().GroupsLost })
		g.CounterFunc("reconnects", "worker reconnects", func() int64 { return clu.Stats().Reconnects })
	}
}

// traced wraps a query endpoint with per-request tracing: the trace ID
// arrives on X-Hillview-Trace (minted when absent), is echoed on the
// response, rides the request context through every layer — scheduler,
// engine, cluster wire — and the finished trace lands in the ring
// behind /api/trace/<id>. Status and introspection endpoints stay
// untraced.
func (s *server) traced(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.httpReqs.Inc()
		start := time.Now()
		tr := s.tracer.Start(r.Header.Get("X-Hillview-Trace"))
		w.Header().Set("X-Hillview-Trace", tr.ID())
		sp := tr.StartSpan("http." + name)
		h(w, r.WithContext(obs.WithTrace(r.Context(), tr)))
		sp.End()
		tr.Finish(nil)
		s.httpLatency.ObserveSince(start)
	}
}

// mux registers the handlers, each wrapped so a panic in the handler
// body (render bugs included) becomes that request's 500; query
// endpoints are additionally wrapped with per-request tracing.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	query := func(name string, h http.HandlerFunc) http.HandlerFunc {
		return s.traced(name, s.sched.Recovered(h))
	}
	mux.HandleFunc("/api/load", query("load", s.handleLoad))
	mux.HandleFunc("/api/meta", query("meta", s.handleMeta))
	mux.HandleFunc("/api/table", query("table", s.handleTable))
	mux.HandleFunc("/api/histogram", query("histogram", s.handleHistogram))
	mux.HandleFunc("/api/heatmap", query("heatmap", s.handleHeatmap))
	mux.HandleFunc("/api/heavyhitters", query("heavyhitters", s.handleHeavyHitters))
	mux.HandleFunc("/api/filter", query("filter", s.handleFilter))
	mux.HandleFunc("/api/ingest", query("ingest", s.handleIngest))
	mux.HandleFunc("/api/standing", query("standing", s.handleStanding))
	mux.HandleFunc("/api/status", s.sched.Recovered(s.handleStatus))
	mux.HandleFunc("/api/svg/histogram", query("svg.histogram", s.handleHistogramSVG))
	mux.HandleFunc("/api/trace/", s.sched.Recovered(s.handleTrace))
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// handleTrace serves one finished trace from the ring as JSON.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/trace/")
	rec, ok := s.tracer.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no finished trace %q (ring holds the last %d)", id, obs.DefaultTraceRing), http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}

// handleMetrics renders every registered metric as Prometheus text.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		log.Printf("hillview: metrics: %v", err)
	}
}

// --- View registry with a derived-view cap ---

// evictedError reports a request for a derived view the cap pushed out.
type evictedError struct{ name string }

func (e *evictedError) Error() string {
	return fmt.Sprintf("view %q was evicted (derived-view cap); re-derive it", e.name)
}

// viewRegistry holds the server's views. Loaded root views are pinned;
// derived views (filters, zooms) are capped and evicted LRU. Eviction
// drops the dataset from the engine registry too — the redo log can
// rebuild it, the registry just stops holding it live.
type viewRegistry struct {
	mu      sync.Mutex
	cap     int
	loaded  map[string]*spreadsheet.View
	derived map[string]*list.Element // value: *derivedEntry
	lru     *list.List               // front = most recently used
	evicted map[string]bool
	drop    func(id string)
}

type derivedEntry struct {
	name string
	view *spreadsheet.View
}

func newViewRegistry(cap int, drop func(id string)) *viewRegistry {
	return &viewRegistry{
		cap:     cap,
		loaded:  make(map[string]*spreadsheet.View),
		derived: make(map[string]*list.Element),
		lru:     list.New(),
		evicted: make(map[string]bool),
		drop:    drop,
	}
}

func (vr *viewRegistry) get(name string) (*spreadsheet.View, error) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	if v, ok := vr.loaded[name]; ok {
		return v, nil
	}
	if el, ok := vr.derived[name]; ok {
		vr.lru.MoveToFront(el)
		return el.Value.(*derivedEntry).view, nil
	}
	if vr.evicted[name] {
		return nil, &evictedError{name: name}
	}
	return nil, fmt.Errorf("no view %q (load it first)", name)
}

func (vr *viewRegistry) putLoaded(name string, v *spreadsheet.View) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	vr.loaded[name] = v
	delete(vr.evicted, name)
}

func (vr *viewRegistry) putDerived(name string, v *spreadsheet.View) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	delete(vr.evicted, name)
	if el, ok := vr.derived[name]; ok {
		el.Value.(*derivedEntry).view = v
		vr.lru.MoveToFront(el)
		return
	}
	vr.derived[name] = vr.lru.PushFront(&derivedEntry{name: name, view: v})
	for vr.cap > 0 && vr.lru.Len() > vr.cap {
		last := vr.lru.Back()
		e := last.Value.(*derivedEntry)
		vr.lru.Remove(last)
		delete(vr.derived, e.name)
		vr.evicted[e.name] = true
		if vr.drop != nil {
			vr.drop(e.view.ID())
		}
	}
}

func (vr *viewRegistry) counts() (loaded, derived, evicted int) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	return len(vr.loaded), len(vr.derived), len(vr.evicted)
}

// --- Handlers ---

// handleStatus reports the soft-state caches: the computation cache
// (engine.Cache) and — in in-process mode — the column pool, the one
// raw-data cache (resident/budget/hit/eviction counters). In cluster
// mode it adds per-connection wire counters and the replication/
// failover telemetry (worker health, retry, group-loss and reconnect
// counts) from cluster.Stats. The "serve" section is the
// scheduler: admission gauges and the shed/deadline/panic/dedup
// counters of the overload contract.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	root := s.sheet.Root()
	hits, misses := root.Cache().Stats()
	loaded, derived, evicted := s.views.counts()
	out := map[string]any{
		"computationCache": map[string]any{
			"hits": hits, "misses": misses, "entries": root.Cache().Len(),
		},
		"replays": root.Replays(),
		"serve":   s.sched.Stats(),
		"views": map[string]any{
			"loaded": loaded, "derived": derived, "evicted": evicted,
		},
		"engine": map[string]any{
			"replays": root.Replays(), "partialsEmitted": engine.PartialsCounter().Load(),
		},
		"http": map[string]any{
			"requests":  s.httpReqs.Load(),
			"latencyMs": map[string]any{"p50": msQ(s.httpLatency, 0.5), "p95": msQ(s.httpLatency, 0.95), "p99": msQ(s.httpLatency, 0.99)},
		},
		"traces": map[string]any{
			"started": s.tracer.Started(), "finished": s.tracer.Finished(),
			"slowQueries": s.tracer.SlowQueries(), "ring": s.tracer.RingLen(),
		},
	}
	if s.ingest != nil {
		out["ingest"] = s.ingestStatus()
	}
	if s.pool != nil {
		ps := s.pool.Stats()
		out["columnPool"] = map[string]any{
			"residentBytes": ps.Resident, "budgetBytes": ps.Budget,
			"columns": ps.Columns, "pinned": ps.Pinned,
			"hits": ps.Hits, "misses": ps.Misses, "evictions": ps.Evictions,
		}
	}
	if s.clu != nil {
		conns := make([]map[string]any, 0, len(s.clu.Clients()))
		for _, ws := range s.clu.WireStats() {
			conns = append(conns, map[string]any{
				"worker":  ws.Addr,
				"bytesIn": ws.BytesIn, "bytesOut": ws.BytesOut,
				"framesIn": ws.FramesIn, "framesOut": ws.FramesOut,
				"encodeNs": ws.EncodeNS, "decodeNs": ws.DecodeNS,
			})
		}
		out["wire"] = conns
		cs := s.clu.Stats()
		workers := make([]map[string]any, 0, len(cs.Workers))
		for _, wh := range cs.Workers {
			workers = append(workers, map[string]any{
				"addr": wh.Addr, "group": wh.Group, "state": wh.State,
				"consecutiveFailures": wh.ConsecutiveFailures,
				"reconnects":          wh.Reconnects,
				"generation":          wh.Generation,
				"lastPingNs":          wh.LastPingNS,
			})
		}
		out["cluster"] = map[string]any{
			"groups": cs.Groups, "replication": cs.Replication,
			"workers": workers,
			"retries": cs.Retries, "groupsLost": cs.GroupsLost,
			"reconnects": cs.Reconnects,
		}
	}
	writeJSON(w, out)
}

func (s *server) view(r *http.Request) (*spreadsheet.View, error) {
	return s.views.get(r.URL.Query().Get("view"))
}

// msQ renders a latency histogram quantile in (fractional) milliseconds.
func msQ(h *obs.Histogram, q float64) float64 {
	return float64(h.Quantile(q)) / 1e6
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("hillview: write: %v", err)
	}
}

// httpError writes err per the serving-layer contract (doc comment at
// the top of this file), with the view-eviction 404 layered on top.
func (s *server) httpError(w http.ResponseWriter, err error) {
	var ev *evictedError
	if errors.As(err, &ev) {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	serve.WriteError(w, err)
}

func (s *server) handleLoad(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name, source := q.Get("name"), q.Get("source")
	if name == "" || source == "" {
		s.httpError(w, fmt.Errorf("need name and source"))
		return
	}
	v, err := s.sheet.Load(r.Context(), name, source)
	if err != nil {
		s.httpError(w, err)
		return
	}
	s.views.putLoaded(name, v)
	schema, err := v.NonEmptySchema()
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"view": name, "rows": v.NumRows(), "columns": schema.NumColumns()})
}

func (s *server) handleMeta(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	schema, err := v.NonEmptySchema()
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{"rows": v.NumRows(), "schema": schema.Columns})
}

// parseOrder parses "+ColA,-ColB" sort specs.
func parseOrder(spec string) (table.RecordOrder, error) {
	if spec == "" {
		return nil, fmt.Errorf("need order")
	}
	var out table.RecordOrder
	for _, part := range strings.Split(spec, ",") {
		if part == "" {
			continue
		}
		asc := true
		switch part[0] {
		case '+':
			part = part[1:]
		case '-':
			asc, part = false, part[1:]
		}
		out = append(out, table.ColumnSortOrder{Column: part, Ascending: asc})
	}
	return out, nil
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q := r.URL.Query()
	order, err := parseOrder(q.Get("order"))
	if err != nil {
		s.httpError(w, err)
		return
	}
	k, _ := strconv.Atoi(q.Get("k"))
	var extra []string
	if e := q.Get("extra"); e != "" {
		extra = strings.Split(e, ",")
	}
	list, err := v.TableView(r.Context(), order, extra, k, nil, nil)
	if err != nil {
		s.httpError(w, err)
		return
	}
	rows := make([][]string, len(list.Rows))
	for i, row := range list.Rows {
		rows[i] = make([]string, len(row))
		for c, val := range row {
			rows[i][c] = val.String()
		}
	}
	writeJSON(w, map[string]any{
		"columns": append(order.Columns(), extra...),
		"rows":    rows, "counts": list.Counts, "position": list.Before, "total": list.Total,
	})
}

// handleHistogram streams progressive NDJSON: one line per partial
// result, then a final line — the browser renders each as it arrives
// (paper §5.3's progressive visualization over the stdlib equivalent of
// a WebSocket). The request context cancels the underlying scan when
// the client disconnects mid-stream.
func (s *server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q := r.URL.Query()
	col := q.Get("col")
	bars, _ := strconv.Atoi(q.Get("bars"))
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")

	enc := json.NewEncoder(w)
	var mu sync.Mutex
	hv, err := v.Histogram(r.Context(), col, spreadsheet.ChartOptions{
		Bars:    bars,
		WithCDF: q.Get("cdf") == "1",
		Exact:   q.Get("exact") == "1",
		OnPartial: func(p engine.Partial) {
			mu.Lock()
			defer mu.Unlock()
			h, ok := p.Result.(*sketch.Histogram)
			if !ok {
				return
			}
			enc.Encode(map[string]any{"partial": true, "done": p.Done, "total": p.Total, "counts": h.Counts})
			if flusher != nil {
				flusher.Flush()
			}
		},
	})
	if err != nil {
		s.httpError(w, err)
		return
	}
	mu.Lock()
	defer mu.Unlock()
	enc.Encode(map[string]any{
		"partial": false, "counts": hv.Hist.Counts, "missing": hv.Hist.Missing,
		"rate": hv.Hist.SampleRate, "buckets": hv.Buckets,
		"cdf": cdfOrNil(hv.CDF),
	})
}

func cdfOrNil(h *sketch.Histogram) []float64 {
	if h == nil {
		return nil
	}
	return h.CDF()
}

func (s *server) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q := r.URL.Query()
	hm, err := v.Heatmap(r.Context(), q.Get("x"), q.Get("y"), spreadsheet.ChartOptions{})
	if err != nil {
		s.httpError(w, err)
		return
	}
	writeJSON(w, map[string]any{
		"x": hm.Result.X, "y": hm.Result.Y, "counts": hm.Result.Counts, "rate": hm.Result.SampleRate,
	})
}

func (s *server) handleHeavyHitters(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q := r.URL.Query()
	k, _ := strconv.Atoi(q.Get("k"))
	if k <= 0 {
		k = 20
	}
	items, err := v.HeavyHitters(r.Context(), q.Get("col"), k, q.Get("sampled") == "1")
	if err != nil {
		s.httpError(w, err)
		return
	}
	type item struct {
		Value string `json:"value"`
		Count int64  `json:"count"`
	}
	out := make([]item, len(items))
	for i, it := range items {
		out[i] = item{Value: it.Value.String(), Count: it.Count}
	}
	writeJSON(w, out)
}

func (s *server) handleFilter(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q := r.URL.Query()
	name, expr := q.Get("name"), q.Get("expr")
	if name == "" || expr == "" {
		s.httpError(w, fmt.Errorf("need name and expr"))
		return
	}
	nv, err := v.FilterExpr(r.Context(), expr)
	if err != nil {
		s.httpError(w, err)
		return
	}
	s.views.putDerived(name, nv)
	writeJSON(w, map[string]any{"view": name, "rows": nv.NumRows()})
}

func (s *server) handleHistogramSVG(w http.ResponseWriter, r *http.Request) {
	v, err := s.view(r)
	if err != nil {
		s.httpError(w, err)
		return
	}
	q := r.URL.Query()
	hv, err := v.Histogram(r.Context(), q.Get("col"), spreadsheet.ChartOptions{WithCDF: q.Get("cdf") == "1"})
	if err != nil {
		s.httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, render.HistogramSVG(hv.Hist, hv.CDF, spreadsheet.DefaultWidth, spreadsheet.DefaultHeight))
}
