package repro_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline/rowdb"
	"repro/internal/baseline/sparklike"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/expr/exprtest"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// The benchmarks below regenerate each evaluation artifact of the paper
// at test scale; cmd/hillview-bench runs the same code at configurable
// scale and prints the paper-style tables.
//
//	Figure 5  → BenchmarkFig5Ops       (per-op latency, both systems)
//	Figure 6  → BenchmarkFig6Cold      (cold-start op latency)
//	§7.2.1    → BenchmarkMicro         (single-thread histogram 3 ways)
//	Figure 7  → BenchmarkFig7Leaves    (leaf scaling)
//	Figure 8  → BenchmarkFig8Servers   (server scaling)
//	Figure 11 → BenchmarkFig11Case     (case-study scripts)

var (
	fig5Once sync.Once
	fig5Env  *bench.HVEnv
	fig5View *spreadsheet.View
	fig5Err  error
)

func benchParams() bench.Params {
	p := bench.DefaultParams()
	p.BaseRows = 50000
	p.Cols = 30
	p.Workers = 2
	p.PartsPerWorker = 4
	return p
}

func fig5Setup(b *testing.B) (*bench.HVEnv, *spreadsheet.View) {
	b.Helper()
	fig5Once.Do(func() {
		fig5Env, fig5Err = bench.StartHV(benchParams())
		if fig5Err != nil {
			return
		}
		fig5View, fig5Err = fig5Env.LoadScale(1)
	})
	if fig5Err != nil {
		b.Fatal(fig5Err)
	}
	return fig5Env, fig5View
}

// BenchmarkFig5Ops measures every Figure 4 operation on Hillview (over
// loopback workers) and on the Spark-like baseline (Figure 5 top).
func BenchmarkFig5Ops(b *testing.B) {
	env, view := fig5Setup(b)
	for _, op := range bench.Ops {
		b.Run("Hillview/"+op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Deterministic headline sketches (O7, O9) are cacheable;
				// invalidate so every iteration computes rather than
				// probing the cache.
				env.Sheet.Root().Cache().InvalidateDataset(view.ID())
				if err := op.Hillview(context.Background(), view, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	p := benchParams()
	parts := bench.GenScale(p, 1)
	eng := sparklike.New(p.Workers * p.WorkerParallelism)
	for _, op := range bench.Ops {
		b.Run("Spark/"+op.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				senv := bench.NewSparkEnv(eng, parts)
				if err := op.Spark(senv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Cold measures a cold-start histogram: data evicted from
// every worker, reloaded from .hvc files as part of the operation
// (Figure 6).
func BenchmarkFig6Cold(b *testing.B) {
	p := benchParams()
	dir := b.TempDir()
	src, err := bench.WriteColdShards(p, 1, dir)
	if err != nil {
		b.Fatal(err)
	}
	env, err := bench.StartHV(p)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	view, err := env.Sheet.Load(context.Background(), "cold", src)
	if err != nil {
		b.Fatal(err)
	}
	op, err := bench.OpByName("O5")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env.DropData(1) // evict soft state everywhere
		env.Sheet.Root().Cache().InvalidateDataset("cold")
		b.StartTimer()
		if err := op.Hillview(context.Background(), view, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro is the §7.2.1 single-thread comparison: streaming
// vizketch vs sampled vizketch vs general-purpose row database.
func BenchmarkMicro(b *testing.B) {
	const rows = 1000000
	t := flights.Gen("bench-micro", rows, 1, flights.CoreColumns)
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)

	b.Run("streaming", func(b *testing.B) {
		sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
		for i := 0; i < b.N; i++ {
			if _, err := sk.Summarize(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampling", func(b *testing.B) {
		rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), rows)
		for i := 0; i < b.N; i++ {
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: uint64(i)}
			if _, err := sk.Summarize(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("database", func(b *testing.B) {
		// The row database holds boxed rows; load a tenth of the data
		// once and time only the query.
		small := flights.Gen("bench-db", rows/10, 1, flights.CoreColumns)
		db := rowdb.New()
		if err := db.LoadColumnar("flights", small, nil); err != nil {
			b.Fatal(err)
		}
		dbt, err := db.Table("flights")
		if err != nil {
			b.Fatal(err)
		}
		pos, err := dbt.ColPos("Distance")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Execute(rowdb.Query{
				Table:   "flights",
				GroupBy: rowdb.FloorDiv{X: rowdb.Col{Pos: pos}, Off: 0, Width: 120},
				Aggs:    []rowdb.Agg{{Kind: rowdb.AggCount}},
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rows/10), "rows")
	})
}

// BenchmarkFig7Leaves measures histogram latency as leaves and shards
// grow together (Figure 7: flat streaming, super-linear sampling).
func BenchmarkFig7Leaves(b *testing.B) {
	const rowsPerLeaf = 50000
	for _, leaves := range []int{1, 4, 16} {
		parts := flights.GenPartitions(fmt.Sprintf("b7-%d", leaves), rowsPerLeaf*leaves, leaves, 1, flights.CoreColumns)
		ds := engine.NewLocal("b7", parts, engine.Config{Parallelism: leaves, AggregationWindow: -1})
		spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
		b.Run(fmt.Sprintf("streaming/leaves=%d", leaves), func(b *testing.B) {
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
			for i := 0; i < b.N; i++ {
				if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sampled/leaves=%d", leaves), func(b *testing.B) {
			rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), rowsPerLeaf*leaves)
			for i := 0; i < b.N; i++ {
				sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: uint64(i)}
				if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Servers measures histogram latency as worker servers and
// data grow together over loopback TCP (Figure 8).
func BenchmarkFig8Servers(b *testing.B) {
	for _, servers := range []int{1, 2, 4} {
		p := benchParams()
		p.Workers = servers
		p.WorkerParallelism = 2
		env, err := bench.StartHV(p)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("b8-%d", servers)
		src := fmt.Sprintf("flights:rows=100000,parts=8,cols=20,seed=%d00{worker}", p.Seed)
		if _, err := env.Sheet.Load(context.Background(), name, src); err != nil {
			env.Close()
			b.Fatal(err)
		}
		spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
		b.Run(fmt.Sprintf("streaming/servers=%d", servers), func(b *testing.B) {
			sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
			for i := 0; i < b.N; i++ {
				env.Sheet.Root().Cache().InvalidateDataset(name) // cacheable sketch
				if _, err := env.Sheet.Root().RunSketch(context.Background(), name, sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sampled/servers=%d", servers), func(b *testing.B) {
			rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), 100000*servers)
			for i := 0; i < b.N; i++ {
				sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: uint64(i)}
				if _, err := env.Sheet.Root().RunSketch(context.Background(), name, sk, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		env.Close()
	}
}

// --- Kernel micro-benchmarks -------------------------------------------
//
// The benchmarks below isolate the leaf scan kernels (span iteration,
// batch bucket indexing, typed column access) that every sketch runs on;
// BENCH_kernels.json records before/after numbers for the vectorized
// rewrite. Data is synthesized directly into columnar storage so the
// numbers measure the scan, not the generator.

// kernelTable builds a table with one int, one double, and one string
// column of deterministic values (no missing cells unless withMissing).
func kernelTable(id string, rows int, withMissing bool) *table.Table {
	ints := make([]int64, rows)
	doubles := make([]float64, rows)
	strs := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		strs = append(strs, fmt.Sprintf("val-%02d", i))
	}
	codes := make([]string, rows)
	x := uint64(12345)
	for i := 0; i < rows; i++ {
		// SplitMix64-style mix keeps values deterministic and well spread.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		ints[i] = int64(z % 1000000)
		doubles[i] = float64(z%3000000) / 1000.0
		codes[i] = strs[z%64]
	}
	var miss *table.Bitset
	if withMissing {
		miss = table.NewBitset(rows)
		for i := 0; i < rows; i += 97 {
			miss.Set(i)
		}
	}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
	)
	cols := []table.Column{
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewDoubleColumn(doubles, miss),
		table.NewStringColumn(codes, miss),
	}
	return table.New(id, schema, cols, table.FullMembership(rows))
}

// kernelMembers returns the table restricted to the named membership
// shape: "full" keeps all rows, "sparse" keeps ~1% as a sorted list.
func kernelMembers(t *table.Table, shape string) *table.Table {
	if shape == "full" {
		return t
	}
	max := t.Members().Max()
	var rows []int32
	for i := 0; i < max; i += 101 {
		rows = append(rows, int32(i))
	}
	return t.WithMembership(t.ID()+"-sparse", table.NewSparseMembership(rows, max))
}

func reportRows(b *testing.B, rows int) {
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrows/s")
}

// BenchmarkKernelHistExact is the headline kernel: an exact histogram
// over an int column (ISSUE 1 acceptance: ≥2× over the seed per-row
// path at 10M rows, full membership).
func BenchmarkKernelHistExact(b *testing.B) {
	for _, rows := range []int{1000000, 10000000} {
		t := kernelTable(fmt.Sprintf("kh-%d", rows), rows, false)
		for _, shape := range []string{"full", "sparse"} {
			tt := kernelMembers(t, shape)
			spec := sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)
			sk := &sketch.HistogramSketch{Col: "i", Buckets: spec}
			b.Run(fmt.Sprintf("rows=%d/%s", rows, shape), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sk.Summarize(tt); err != nil {
						b.Fatal(err)
					}
				}
				reportRows(b, tt.NumRows())
			})
		}
	}
	// The legs above are the best case — a round range and no missing
	// cells. A chart's histogram has neither: see flightsBuckets.
	// FlightNum, DepTime and Month are int columns whose ranges span few
	// integers, so they bucket through a value→slot table like the
	// dictionaries Carrier and Origin; DepDelay and Distance divide per row.
	fl := kernelFlights()
	for _, col := range []string{"DepDelay", "Distance", "FlightNum", "DepTime", "Month", "Carrier", "Origin"} {
		b.Run("flights/"+col, func(b *testing.B) {
			sk := &sketch.HistogramSketch{Col: col, Buckets: flightsBuckets(b, fl, col, 50)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(fl); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, fl.NumRows())
		})
	}
	// A derived column (DeriveOp) is stored when it is derived, so its
	// chart pass is DepDelay's kernel; the derive is paid once, untimed.
	b.Run("flights/derived", func(b *testing.B) {
		d, err := engine.DeriveOp{Col: "DepDelay2", Expr: "DepDelay * 2"}.Apply(fl, "kfl-derived")
		if err != nil {
			b.Fatal(err)
		}
		sk := &sketch.HistogramSketch{Col: "DepDelay2", Buckets: flightsBuckets(b, d, "DepDelay2", 50)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sk.Summarize(d); err != nil {
				b.Fatal(err)
			}
		}
		reportRows(b, d.NumRows())
	})
	// A chart's pass over a filtered view: the bitmap reaches the
	// counters a word at a time.
	for _, v := range flightsViews(b)[1:] {
		for _, col := range []string{"DepDelay", "Distance"} {
			b.Run("flights/"+col+"/"+v.name, func(b *testing.B) {
				sk := &sketch.HistogramSketch{Col: col, Buckets: flightsBuckets(b, v.t, col, 50)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sk.Summarize(v.t); err != nil {
						b.Fatal(err)
					}
				}
				reportRows(b, v.t.NumRows())
			})
		}
	}
}

// flightsBuckets is col's bucket geometry over the flights partition as
// a chart derives it — the range from a RangeSketch over the data — and
// logs it: data-derived ranges are not round, and four of the five
// columns the end-to-end benchmark's heat maps read carry a missing mask
// (cancelled flights), so this, not the round-range legs, is the path
// the ledger's hist and heat-map rows pay for. A string column gets at
// most count buckets over its sorted dictionary.
func flightsBuckets(b *testing.B, t *table.Table, col string, count int) sketch.BucketSpec {
	b.Helper()
	if sc, ok := t.MustColumn(col).(*table.StringColumn); ok {
		dict := append([]string(nil), sc.Dict()...)
		sort.Strings(dict)
		spec := sketch.StringBucketsFromDistinct(dict, count)
		b.Logf("%s: %d distinct values in %d buckets", col, len(dict), spec.Count)
		return spec
	}
	res, err := (&sketch.RangeSketch{Col: col}).Summarize(t)
	if err != nil {
		b.Fatal(err)
	}
	r := res.(*sketch.DataRange)
	spec := sketch.NumericBuckets(r.Kind, r.Min, r.Max, count)
	b.Logf("%s: [%g, %g] in %d buckets, %d of %d rows missing", col, r.Min, r.Max, count, r.Missing, r.Present+r.Missing)
	return spec
}

// BenchmarkKernelHistMissing measures the missing-mask overhead on the
// exact histogram (1 in 97 rows missing).
func BenchmarkKernelHistMissing(b *testing.B) {
	const rows = 1000000
	t := kernelTable("khm", rows, true)
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 50)
	sk := &sketch.HistogramSketch{Col: "d", Buckets: spec}
	for i := 0; i < b.N; i++ {
		if _, err := sk.Summarize(t); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkKernelHistSampled measures the sampled histogram scan.
func BenchmarkKernelHistSampled(b *testing.B) {
	const rows = 10000000
	t := kernelTable("khs", rows, false)
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 50)
	for _, shape := range []string{"full", "sparse"} {
		tt := kernelMembers(t, shape)
		sk := &sketch.HistogramSketch{Col: "d", Buckets: spec, Rate: 0.01, Seed: 42}
		b.Run(shape, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(tt); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, tt.NumRows())
		})
	}
	// The flights legs sample the columns of BenchmarkKernelHistExact's
	// flights legs, so every column kind buckets gathered rows
	// (CountRows): Distance divides, DepTime and Month index a slot
	// table, Carrier and Origin their dictionary codes.
	fl := kernelFlights()
	for _, col := range []string{"Distance", "DepTime", "Month", "Carrier", "Origin"} {
		b.Run("flights/"+col, func(b *testing.B) {
			sk := &sketch.HistogramSketch{Col: col, Buckets: flightsBuckets(b, fl, col, 50), Rate: 0.1, Seed: 42}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(fl); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, fl.NumRows())
		})
	}
}

// hhTable builds a one-column table "s" of rows strings drawn from a
// dictionary of dict values: uniformly when zipf is 0, else
// Zipf(zipf)-distributed by inverse CDF.
func hhTable(id string, rows, dict int, zipf float64) *table.Table {
	cdf := make([]float64, dict)
	var sum float64
	for i := range cdf {
		w := 1.0
		if zipf > 0 {
			w = 1 / math.Pow(float64(i+1), zipf)
		}
		sum += w
		cdf[i] = sum
	}
	names := make([]string, dict)
	for i := range names {
		names[i] = fmt.Sprintf("val-%04d", i)
	}
	strs := make([]string, rows)
	rng := rand.New(rand.NewPCG(12345, uint64(dict)))
	for i := range strs {
		strs[i] = names[min(sort.SearchFloat64s(cdf, rng.Float64()*sum), dict-1)]
	}
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	return table.New(id, schema, []table.Column{table.NewStringColumn(strs, nil)}, table.FullMembership(rows))
}

// BenchmarkKernelHeavyHitters measures Misra–Gries over dictionary string
// columns on both sides of sketch's dense-tally bound (4096 codes): a
// dictionary smaller than K, the flights airports (340 codes, Zipf 1.08 —
// the regime the benchmark ledger pays for, where K counters hold about
// half the rows), the largest tallied dictionary, and one past the bound,
// which streams through the code-keyed map.
func BenchmarkKernelHeavyHitters(b *testing.B) {
	const rows = 1000000
	for _, d := range []struct {
		name string
		dict int
		zipf float64
	}{
		{"dict=16", 16, 0},
		{"dict=340zipf", 340, 1.08},
		{"dict=4096", 4096, 0},
		{"dict=5000map", 5000, 0},
	} {
		t := hhTable("khh-"+d.name, rows, d.dict, d.zipf)
		for _, k := range []int{10, 64} {
			for _, shape := range []string{"full", "sparse"} {
				tt := kernelMembers(t, shape)
				sk := &sketch.MisraGriesSketch{Col: "s", K: k}
				b.Run(fmt.Sprintf("%s/k=%d/%s", d.name, k, shape), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := sk.Summarize(tt); err != nil {
							b.Fatal(err)
						}
					}
					reportRows(b, tt.NumRows())
				})
			}
		}
	}
}

// BenchmarkKernelHist2D measures the two-axis bucket kernel.
func BenchmarkKernelHist2D(b *testing.B) {
	const rows = 1000000
	t := kernelTable("kh2", rows, false)
	for _, shape := range []string{"full", "sparse"} {
		tt := kernelMembers(t, shape)
		sk := &sketch.Histogram2DSketch{
			XCol: "i", YCol: "d",
			X: sketch.NumericBuckets(table.KindInt, 0, 1000000, 25),
			Y: sketch.NumericBuckets(table.KindDouble, 0, 3000, 20),
		}
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(tt); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, tt.NumRows())
		})
	}
	// The heat map the end-to-end benchmark draws: 600×200 px in 3 px
	// cells over data-derived ranges (flightsBuckets), over the column
	// pairs it rotates through.
	// The flights-unmasked leg scans the same stored cells of the first
	// pair with the masks dropped, so the gap between the two is what the
	// missing-row patch costs.
	fl := kernelFlights()
	legs := []struct {
		name string
		t    *table.Table
		x, y string
	}{
		{"flights", fl, "DepDelay", "ArrDelay"},
		{"flights", fl, "Distance", "AirTime"},
		// Both axes through slot tables, then one table and one divide.
		{"flights", fl, "FlightNum", "DepTime"},
		{"flights", fl, "CRSDepTime", "DepDelay"},
		{"flights-unmasked", unmaskedColumns(b, fl, "DepDelay", "ArrDelay"), "DepDelay", "ArrDelay"},
	}
	for _, leg := range legs {
		b.Run(leg.name+"/"+leg.x+"-"+leg.y, func(b *testing.B) {
			b.ReportAllocs()
			sk := &sketch.Histogram2DSketch{XCol: leg.x, YCol: leg.y,
				X: flightsBuckets(b, leg.t, leg.x, 200), Y: flightsBuckets(b, leg.t, leg.y, 66)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(leg.t); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, leg.t.NumRows())
		})
	}
	// The first pair as a query computes it: 8 partitions of 125,000
	// rows (the end-to-end benchmark's file layout) through the engine,
	// so B/op counts the per-partition matrices and the merge tree's
	// nodes as well as the scan.
	parts := make([]*table.Table, 8)
	per := fl.NumRows() / len(parts)
	for i := range parts {
		parts[i] = fl.WithMembership(fmt.Sprintf("kfl-p%d", i), table.NewRangeMembership(i*per, (i+1)*per, fl.NumRows()))
	}
	ds := engine.NewLocal("kfl-parts", parts, engine.Config{AggregationWindow: -1})
	b.Run("partitions/DepDelay-ArrDelay", func(b *testing.B) {
		b.ReportAllocs()
		sk := &sketch.Histogram2DSketch{XCol: "DepDelay", YCol: "ArrDelay",
			X: flightsBuckets(b, fl, "DepDelay", 200), Y: flightsBuckets(b, fl, "ArrDelay", 66)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
				b.Fatal(err)
			}
		}
		reportRows(b, fl.NumRows())
	})
}

// BenchmarkKernelTrellis measures the trellis, the heat map's 2-D scan
// with a group axis: Carrier in 8 groups × DepDelay in 50 buckets ×
// ArrDelay in 20 over kernelFlights, under full membership (spans) and
// the "Distance > 610" bitmap of flightsViews (gathered rows).
func BenchmarkKernelTrellis(b *testing.B) {
	for _, v := range flightsViews(b) {
		if v.name == "delay12" {
			continue
		}
		b.Run("flights/Carrier-DepDelay-ArrDelay/"+v.name, func(b *testing.B) {
			b.ReportAllocs()
			sk := &sketch.TrellisSketch{GroupCol: "Carrier", XCol: "DepDelay", YCol: "ArrDelay",
				Group: flightsBuckets(b, v.t, "Carrier", 8),
				X:     flightsBuckets(b, v.t, "DepDelay", 50), Y: flightsBuckets(b, v.t, "ArrDelay", 20)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.Summarize(v.t); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, v.t.NumRows())
		})
	}
}

// unmaskedColumns returns a table of the named numeric columns of t with
// their missing masks dropped: the same stored cells, none of them
// missing.
func unmaskedColumns(b *testing.B, t *table.Table, names ...string) *table.Table {
	b.Helper()
	descs := make([]table.ColumnDesc, len(names))
	cols := make([]table.Column, len(names))
	for i, name := range names {
		switch c := t.MustColumn(name).(type) {
		case *table.IntColumn:
			cols[i] = table.NewIntColumn(c.Kind(), c.Ints(), nil)
		case *table.DoubleColumn:
			cols[i] = table.NewDoubleColumn(c.Doubles(), nil)
		default:
			b.Fatalf("column %s is a %T, not a stored numeric column", name, c)
		}
		descs[i] = table.ColumnDesc{Name: name, Kind: cols[i].Kind()}
	}
	return table.New(t.ID()+"-unmasked", table.NewSchema(descs...), cols, t.Members())
}

// BenchmarkKernelRange measures the min/max scan kernel: the round
// double column, then a chart's first pass over flights columns (a
// double with a missing mask, a double without, a dictionary) under full
// membership and the two filtered views of flightsViews, whose bitmaps
// the kernel reads a word at a time.
func BenchmarkKernelRange(b *testing.B) {
	const rows = 1000000
	t := kernelTable("kr", rows, false)
	sk := &sketch.RangeSketch{Col: "d"}
	b.Run("d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sk.Summarize(t); err != nil {
				b.Fatal(err)
			}
		}
		reportRows(b, rows)
	})
	for _, v := range flightsViews(b) {
		for _, col := range []string{"DepDelay", "Distance", "Origin"} {
			sk := &sketch.RangeSketch{Col: col}
			b.Run("flights/"+col+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sk.Summarize(v.t); err != nil {
						b.Fatal(err)
					}
				}
				reportRows(b, v.t.NumRows())
			})
		}
	}
}

// flightsView is kernelFlights under one membership.
type flightsView struct {
	name string
	t    *table.Table
}

// flightsViews is kernelFlights in full and under two filters of the
// end-to-end benchmark's shape, each a bitmap membership: "Distance >
// 610" keeps ≈85 % of the rows, "DepDelay > 12" ≈16 %.
func flightsViews(b *testing.B) []flightsView {
	b.Helper()
	fl := kernelFlights()
	views := []flightsView{{"full", fl}}
	for _, c := range []struct{ name, src string }{{"dist610", "Distance > 610"}, {"delay12", "DepDelay > 12"}} {
		t, err := engine.FilterOp{Predicate: c.src}.Apply(fl, "kfl-"+c.name)
		if err != nil {
			b.Fatal(err)
		}
		views = append(views, flightsView{c.name, t})
	}
	return views
}

// BenchmarkKernelCompare measures the typed selection primitive, "column
// op constant" into bitmap words, over kernelFlights in 4096-row spans:
// a double (DepDelay), an int (FlightNum) and dictionary codes (Origin),
// each against <, > and ==.
func BenchmarkKernelCompare(b *testing.B) {
	fl := kernelFlights()
	rows := fl.NumRows()
	out := make([]uint64, table.SelectBatch/64)
	for _, c := range []struct {
		name, col string
		c         table.Value
	}{
		{"float64", "DepDelay", table.DoubleValue(12)},
		{"int64", "FlightNum", table.IntValue(4000)},
		{"int32", "Origin", table.StringValue("ORD")},
	} {
		for _, op := range []struct {
			name string
			op   table.CmpOp
		}{{"lt", table.CmpLT}, {"gt", table.CmpGT}, {"eq", table.CmpEQ}} {
			cc, ok := table.NewConstCompare(fl.MustColumn(c.col), op.op, c.c)
			if !ok {
				b.Fatalf("%s: no typed compare", c.col)
			}
			b.Run(c.name+"/"+op.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for a := 0; a < rows; a += table.SelectBatch {
						cc.SelectSpan(a, min(a+table.SelectBatch, rows), out)
					}
				}
				reportRows(b, rows)
			})
		}
	}
}

// BenchmarkKernelDistinct measures the HyperLogLog scan kernel over the
// int column.
func BenchmarkKernelDistinct(b *testing.B) {
	const rows = 1000000
	t := kernelTable("kd", rows, false)
	sk := &sketch.DistinctCountSketch{Col: "i"}
	for i := 0; i < b.N; i++ {
		if _, err := sk.Summarize(t); err != nil {
			b.Fatal(err)
		}
	}
	reportRows(b, rows)
}

// BenchmarkKernelParallelAgg measures the engine-level aggregation end
// to end: 10M rows in 40 micropartitions of 250k (the default -micro),
// one accumulator per partition claimed off the partition cursor,
// combining in a pairwise merge tree, across the three summary shapes
// that stress it differently (dense tallies, a 2-D count matrix, and
// the code-keyed Misra–Gries state).
func BenchmarkKernelParallelAgg(b *testing.B) {
	const rows, micro = 10000000, 250000
	t := kernelTable("kpa", rows, false)
	parts := make([]*table.Table, rows/micro)
	for i := range parts {
		parts[i] = table.SliceRows(t, fmt.Sprintf("kpa#%d", i), i*micro, (i+1)*micro)
	}
	ds := engine.NewLocal("kpa", parts, engine.Config{AggregationWindow: -1})
	sketches := []struct {
		name string
		sk   sketch.Sketch
	}{
		{"hist", &sketch.HistogramSketch{Col: "i", Buckets: sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)}},
		{"hist2d", &sketch.Histogram2DSketch{
			XCol: "i", YCol: "d",
			X: sketch.NumericBuckets(table.KindInt, 0, 1000000, 25),
			Y: sketch.NumericBuckets(table.KindDouble, 0, 3000, 20),
		}},
		{"heavyhitters", &sketch.MisraGriesSketch{Col: "s", K: 16}},
	}
	for _, tc := range sketches {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ds.Sketch(context.Background(), tc.sk, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportRows(b, rows)
		})
	}
}

// --- Selection kernels: row path vs typed path, interleaved -------------
//
// The benchmarks below time a row-at-a-time reference and the typed
// path alternately inside one process (the
// ROADMAP's A/B rule: host speed drifts, so the two sides must share
// the same minutes) and report both rates.

var (
	kernelFlightsOnce sync.Once
	kernelFlightsTbl  *table.Table
)

// kernelFlights is one 1M-row flights partition: the columns, value
// distributions, ties and missing cells the end-to-end benchmark's
// filter and table ops run over.
func kernelFlights() *table.Table {
	kernelFlightsOnce.Do(func() { kernelFlightsTbl = flights.Gen("kfl", 1000000, 3, flights.CoreColumns) })
	return kernelFlightsTbl
}

// interleave runs ref and typed alternately b.N times each and reports
// their separate rates over rows rows.
func interleave(b *testing.B, rows int, ref, typed func() error) {
	b.Helper()
	var refT, typedT time.Duration
	for i := 0; i < b.N; i++ {
		for side, f := range []func() error{ref, typed} {
			start := time.Now()
			if err := f(); err != nil {
				b.Fatal(err)
			}
			if side == 0 {
				refT += time.Since(start)
			} else {
				typedT += time.Since(start)
			}
		}
	}
	mrows := float64(rows) * float64(b.N) / 1e6
	b.ReportMetric(mrows/refT.Seconds(), "row_Mrows/s")
	b.ReportMetric(mrows/typedT.Seconds(), "typed_Mrows/s")
	b.ReportMetric(refT.Seconds()/typedT.Seconds(), "speedup")
}

// BenchmarkKernelFilter compares Table.Filter over the reference row
// evaluator (package exprtest) with FilterOp.Apply's vector nodes.
func BenchmarkKernelFilter(b *testing.B) {
	t := kernelFlights()
	for _, tc := range []struct{ name, src string }{
		{"int-vs-int", "FlightNum > 4000"},
		{"int-vs-double", "FlightNum > 4000.5"},
		{"string-eq", `Carrier == "WN"`},
		{"and", "DepDelay > 10 && Distance < 1000"},
		{"abs", "abs(DepDelay) > 30"},
		{"contains", `contains(Origin, "A")`},
		{"lower-eq", `lower(Carrier) == "wn"`},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pred, err := exprtest.Predicate(tc.src, t)
			if err != nil {
				b.Fatal(err)
			}
			op := engine.FilterOp{Predicate: tc.src}
			var want, got int
			interleave(b, t.NumRows(),
				func() error { want = t.Filter("ref", pred).NumRows(); return nil },
				func() error {
					out, err := op.Apply(t, "typed")
					if err == nil {
						got = out.NumRows()
					}
					return err
				})
			if got != want {
				b.Fatalf("typed filter kept %d rows, row filter %d", got, want)
			}
		})
	}
}

// BenchmarkKernelDerive compares a derived column stored through the
// reference row evaluator (package exprtest) with DeriveOp.Apply's
// vector nodes, and requires the two columns to be equal.
func BenchmarkKernelDerive(b *testing.B) {
	t := kernelFlights()
	for _, tc := range []struct{ name, src string }{
		{"arith", "DepDelay * 2"},
		{"lower", "lower(Carrier)"},
		{"if", "if(DepDelay > 0, DepDelay, 0)"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			op := engine.DeriveOp{Col: "d", Expr: tc.src}
			var want, got table.Column
			interleave(b, t.NumRows(),
				func() (err error) { want, err = exprtest.DeriveColumn(tc.src, t); return err },
				func() error {
					out, err := op.Apply(t, "typed")
					if err == nil {
						got = out.MustColumn("d")
					}
					return err
				})
			if !reflect.DeepEqual(got, want) {
				b.Fatalf("typed derive stored a %T, row derive a %T with other values", got, want)
			}
		})
	}
}

var (
	kernelMsgOnce sync.Once
	kernelMsgTbl  *table.Table
)

// kernelMsg is a 1M-row table shaped like the end-to-end benchmark's
// ingest events: msg is Zipf over 200 values, so a page sorted by it
// leads with one dominant value, and lat is uniform.
func kernelMsg() *table.Table {
	kernelMsgOnce.Do(func() {
		const rows = 1000000
		names := make([]string, 200)
		for i := range names {
			names[i] = fmt.Sprintf("m%d", i)
		}
		r := rand.New(rand.NewPCG(13, 14))
		z := rand.NewZipf(r, 1.3, 1, uint64(len(names)-1))
		bld := table.NewBuilder(table.NewSchema(
			table.ColumnDesc{Name: "msg", Kind: table.KindString},
			table.ColumnDesc{Name: "lat", Kind: table.KindDouble}), rows)
		for i := 0; i < rows; i++ {
			bld.AppendRow(table.Row{table.StringValue(names[z.Uint64()]), table.DoubleValue(r.Float64()*180 - 90)})
		}
		kernelMsgTbl = bld.Freeze("kmsg")
	})
	return kernelMsgTbl
}

// nextKRuns folds parts the way a leaf's single worker does: one
// accumulator per partition, each the Next of the one before, merged by
// the partition-index tree.
func nextKRuns(sk *sketch.NextKSketch, parts []*table.Table) (sketch.Result, error) {
	results := make([]sketch.Result, len(parts))
	acc := sk.NewAccumulator()
	for i, p := range parts {
		if i > 0 {
			acc = acc.Next()
		}
		if err := acc.Add(p); err != nil {
			return nil, err
		}
		results[i] = acc.Result()
	}
	return sketch.MergeTree(sk, results...)
}

// BenchmarkKernelNextK times the pruned next-K scan on the table pages
// of the end-to-end benchmark (the three sort specs of scan_inproc over
// flights, and ingest_query's "+msg" over a Zipf string lead) in two
// shapes. "table" summarizes the 1M rows in one cold scan. "runs8" folds
// them as 8 Next-chained partitions, as the engine folds the benchmark's
// 8-file dataset. allocs/op is the rows each boxed into the window.
func BenchmarkKernelNextK(b *testing.B) {
	fl, msg := kernelFlights(), kernelMsg()
	for _, tc := range []struct {
		name string
		t    *table.Table
		sk   *sketch.NextKSketch
	}{
		{"double-lead", fl, &sketch.NextKSketch{Order: table.Asc("DepDelay"), Extra: []string{"Carrier", "Origin"}, K: 20}},
		{"five-columns", fl, &sketch.NextKSketch{Order: table.Asc("DepDelay").Then("ArrDelay", true).Then("Distance", false).
			Then("CRSDepTime", true).Then("FlightNum", true), K: 20}},
		{"string-lead", fl, &sketch.NextKSketch{Order: table.Asc("Origin"), Extra: []string{"Dest", "Carrier"}, K: 20}},
		{"msg-lead", msg, &sketch.NextKSketch{Order: table.Asc("msg"), Extra: []string{"lat"}, K: 20}},
	} {
		t := tc.t
		b.Run(tc.name+"/table", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.sk.Summarize(t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(t.NumRows())*float64(b.N)/1e6/b.Elapsed().Seconds(), "typed_Mrows/s")
		})
		b.Run(tc.name+"/runs8", func(b *testing.B) {
			parts := make([]*table.Table, 8)
			per := t.NumRows() / len(parts)
			for i := range parts {
				parts[i] = table.SliceRows(t, fmt.Sprintf("%s#%d", t.ID(), i*per), i*per, (i+1)*per)
			}
			want := tc.sk.Zero()
			for _, p := range parts {
				s, err := tc.sk.Summarize(p)
				if err == nil {
					want, err = tc.sk.Merge(want, s)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var (
				got sketch.Result
				err error
			)
			for i := 0; i < b.N; i++ {
				if got, err = nextKRuns(tc.sk, parts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(t.NumRows())*float64(b.N)/1e6/b.Elapsed().Seconds(), "typed_Mrows/s")
			if !reflect.DeepEqual(got, want) {
				b.Fatal("chained accumulators differ from Summarize+Merge")
			}
		})
	}
}

// BenchmarkKernelHistCrossover is where sketch.HistogramExactAboveRate is
// read off: the exact histogram kernel and the sampled one run alternately
// over the same 1M-row column at sampling rates 1/64 … 1, and the rate at
// which the sampled scan stops being the cheaper one is reported as
// crossover_rate (0 when it never is; its cost is linear in the rate, so
// the crossing is interpolated linearly between the bracketing rates).
func BenchmarkKernelHistCrossover(b *testing.B) {
	const rows = 1000000
	plain, missing := kernelTable("khx", rows, false), kernelTable("khx-m", rows, true)
	rates := []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}
	for _, tc := range []struct {
		name string
		t    *table.Table
		col  string
		spec sketch.BucketSpec
	}{
		{"int", plain, "i", sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)},
		{"double-missing", missing, "d", sketch.NumericBuckets(table.KindDouble, 0, 3000, 50)},
		{"dictionary", plain, "s", sketch.StringBucketsFromBounds([]string{"val-00", "val-16", "val-32", "val-48"}, false)},
		{"int-bitmap", plain.Filter("khx-f", func(row int) bool { return row%3 != 0 }), "i", sketch.NumericBuckets(table.KindInt, 0, 1000000, 50)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			scan := func(sk sketch.Sketch) time.Duration {
				start := time.Now()
				if _, err := sk.Summarize(tc.t); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			var exactT time.Duration
			sampledT := make([]time.Duration, len(rates))
			for i := 0; i < b.N; i++ {
				for r, rate := range rates {
					exactT += scan(&sketch.HistogramSketch{Col: tc.col, Buckets: tc.spec})
					sampledT[r] += scan(&sketch.HistogramSketch{Col: tc.col, Buckets: tc.spec, Rate: rate, Seed: uint64(i + 1)})
				}
			}
			// The exact side ran once per rate; compare per-scan means.
			exactScan := exactT.Seconds() / float64(len(rates)*b.N)
			cross, prevRate, prevGap := 0.0, 0.0, -exactScan
			for r, rate := range rates {
				scan := sampledT[r].Seconds() / float64(b.N)
				b.ReportMetric(scan*1e3, fmt.Sprintf("sampled_ms@%g", rate))
				gap := scan - exactScan
				if cross == 0 && gap >= 0 {
					cross = prevRate + (rate-prevRate)*(-prevGap)/(gap-prevGap)
				}
				prevRate, prevGap = rate, gap
			}
			b.ReportMetric(exactScan*1e3, "exact_ms")
			b.ReportMetric(cross, "crossover_rate")
		})
	}
}

// BenchmarkFig11Case replays the case-study scripts (Figure 11 machine
// time).
func BenchmarkFig11Case(b *testing.B) {
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	sheet := spreadsheet.New(root)
	view, err := sheet.Load(context.Background(), "fl", "flights:rows=50000,parts=4,seed=7")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig11(view); err != nil {
			b.Fatal(err)
		}
	}
}
