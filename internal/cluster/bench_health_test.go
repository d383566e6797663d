package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// BenchmarkClusterHealth measures the query-path overhead of the
// background health monitor: the same sketch, with the monitor off and
// with it pinging at an aggressively short interval. The two should be
// within noise of each other — health traffic is one tiny frame per
// worker per interval, multiplexed on the query connection.
func BenchmarkClusterHealth(b *testing.B) {
	for _, interval := range []time.Duration{0, 5 * time.Millisecond} {
		name := "monitor=off"
		if interval > 0 {
			name = fmt.Sprintf("monitor=%s", interval)
		}
		b.Run(name, func(b *testing.B) {
			cfg := engine.Config{AggregationWindow: -1}
			addrs := make([]string, 2)
			for i := range addrs {
				w := NewWorker(storage.NewLoader(cfg, 0, nil))
				addr, err := w.Listen("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { w.Close() })
				addrs[i] = addr
			}
			c, err := ConnectOptions(nil, addrs, cfg, Options{
				Replication:    2,
				HealthInterval: interval,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			ds, err := c.Loader()("fl", "flights:rows=50000,parts=4,seed=11{worker}")
			if err != nil {
				b.Fatal(err)
			}
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 32)}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ds.Sketch(ctx, sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
