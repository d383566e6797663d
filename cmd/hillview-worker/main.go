// Command hillview-worker runs one Hillview worker server: it loads
// dataset shards from local storage on request and executes vizketches
// over them, streaming partial results to the root (paper Fig. 1).
//
// Workers are stateless: all loaded data is soft state that the root
// rebuilds through its redo log after a restart (paper §5.8), so a
// worker can be killed and restarted at any time.
//
// Usage:
//
//	hillview-worker -listen :8100 [-micro 250000] [-parallelism 0] [-pool-budget 256M]
//
// HVC sources are served through the memory-mapped column store: column
// data is loaded lazily per scan, pinned while in use, and evicted
// under the -pool-budget byte budget (default from HILLVIEW_POOL_BUDGET,
// 0 = unlimited), so a worker can serve datasets larger than its RAM.
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/storage"
)

func main() {
	listen := flag.String("listen", ":8100", "address to listen on")
	micro := flag.Int("micro", storage.DefaultMicroRows, "micropartition size in rows")
	parallelism := flag.Int("parallelism", 0, "leaf thread pool size (0 = all cores)")
	window := flag.Duration("window", engine.DefaultAggregationWindow, "partial-result aggregation window")
	budget := flag.String("pool-budget", "", "column pool byte budget, e.g. 256M (default $HILLVIEW_POOL_BUDGET; 0 = unlimited)")
	debugAddr := flag.String("debug-addr", "", "debug listen address serving /debug/pprof (empty = disabled)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM, wait this long for in-flight requests before closing connections")
	flag.Parse()

	budgetBytes, err := storage.PoolBudget(*budget)
	if err != nil {
		log.Fatalf("hillview-worker: %v", err)
	}
	pool := colstore.NewPool(budgetBytes)
	if *debugAddr != "" {
		go func() { log.Printf("hillview-worker: debug server: %v", http.ListenAndServe(*debugAddr, nil)) }()
		log.Printf("hillview-worker: debug server (pprof) on %s", *debugAddr)
	}

	flights.Register()
	cfg := engine.Config{Parallelism: *parallelism, AggregationWindow: *window}
	w := cluster.NewWorker(storage.NewLoader(cfg, *micro, pool))
	w.SetLogf(log.Printf)
	addr, err := w.Listen(*listen)
	if err != nil {
		log.Fatalf("hillview-worker: %v", err)
	}
	log.Printf("hillview-worker: serving on %s (micropartitions of %d rows, pool budget %d bytes)",
		addr, *micro, budgetBytes)

	// Graceful shutdown: SIGTERM/SIGINT drains — new requests are
	// refused (the root's failover retries them on replicas), in-flight
	// requests get -drain-timeout to finish — then the process exits 0.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("hillview-worker: %v: draining (up to %v, %d requests in flight)", got, *drainTimeout, w.ActiveRequests())
	if err := w.Drain(*drainTimeout); err != nil {
		log.Printf("hillview-worker: %v", err)
	}
	log.Printf("hillview-worker: shutdown complete")
}
