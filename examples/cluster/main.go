// Cluster: a three-worker Hillview deployment on loopback TCP showing
// the distributed execution tree (Fig 1): progressive partial results
// arriving at the root, byte accounting, and failure recovery — a
// worker "crashes" (loses its soft state) and the redo log rebuilds it
// mid-session.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/render"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
)

func main() {
	flights.Register()
	cfg := engine.Config{Parallelism: 4, AggregationWindow: 20 * time.Millisecond}

	// Boot three workers (in production these are separate machines
	// running cmd/hillview-worker).
	var addrs []string
	var workers []*cluster.Worker
	for i := 0; i < 3; i++ {
		w := cluster.NewWorker(storage.NewLoader(cfg, 0, nil))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, addr)
		fmt.Printf("worker %d listening on %s\n", i, addr)
	}
	c, err := cluster.Connect(addrs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// The root: redo log + computation cache over the cluster loader.
	sheet := spreadsheet.New(engine.NewRoot(c.Loader()))
	// {worker} expands per worker: each generates (in production: reads)
	// its own shard.
	view, err := sheet.Load(context.Background(), "flights", "flights:rows=400000,parts=16,seed=90{worker}")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nloaded %d rows across %d workers\n\n", view.NumRows(), len(addrs))

	// A histogram with progressive updates: watch partials stream in.
	fmt.Println("— histogram with progressive partials —")
	start := time.Now()
	hv, err := view.Histogram(context.Background(), "DepDelay", spreadsheet.ChartOptions{
		Bars: 30,
		OnPartial: func(p engine.Partial) {
			if h, ok := p.Result.(*sketch.Histogram); ok {
				fmt.Printf("  +%6.1fms  %2d/%2d leaves  %7d sampled rows\n",
					float64(time.Since(start).Microseconds())/1000, p.Done, p.Total, h.SampledRows)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final after %.1fms; root received %d KB total this session\n\n",
		float64(time.Since(start).Microseconds())/1000, c.BytesReceived()/1024)
	fmt.Println(render.HistogramASCII(hv.Hist, 60, 10))

	// Derive a filtered view — the map op runs on every worker.
	west, err := view.FilterExpr(context.Background(), `OriginState == "CA" || OriginState == "WA" || OriginState == "OR"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("west-coast departures: %d rows\n\n", west.NumRows())

	// Crash worker 1: all its soft state vanishes.
	fmt.Println("— simulating worker restart (soft state lost) —")
	workers[1].DropAll()

	// The next query hits the missing dataset; the root replays the
	// redo log (reload + filter) transparently and answers anyway.
	hh, err := west.HeavyHitters(context.Background(), "Origin", 8, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered after replay (replays so far: %d)\n", sheet.Root().Replays())
	fmt.Println(render.HeavyHittersASCII(hh, west.NumRows()))

	for _, w := range workers {
		w.Close()
	}
}
