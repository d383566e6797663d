package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/baseline/rowdb"
	"repro/internal/baseline/sparklike"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/table"
)

// Measurement is one cell of an experiment table.
type Measurement struct {
	System string
	Op     string
	// Elapsed is the operation latency; FirstPartial the time to the
	// first progressive update (zero when not measured).
	Elapsed      time.Duration
	FirstPartial time.Duration
	// Bytes received by the root/driver during the operation.
	Bytes int64
	Err   error
}

// Fig5Result reproduces Figure 5: end-to-end warm latency (top) and
// root-received bytes (bottom) for O1–O11 across systems and scales.
type Fig5Result struct {
	Params Params
	Cells  []Measurement
}

// RunFig5 measures Spark at 5x and Hillview at 5x/10x/100x with warm
// (in-memory) data, recording first-partial times for Hillview 100x
// (the "Hillview100xF" series).
func RunFig5(p Params, scales []int, sparkScale int) (*Fig5Result, error) {
	out := &Fig5Result{Params: p}

	// --- Hillview over in-process workers ---
	env, err := StartHV(p)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	for _, scale := range scales {
		view, err := env.LoadScale(scale)
		if err != nil {
			return nil, err
		}
		// One untimed warmup op per scale removes connection and
		// first-run effects (the paper excludes the first measurement,
		// §7.2) without pre-filling the computation caches the measured
		// ops would legitimately populate themselves.
		if err := Ops[0].Hillview(context.Background(), view, nil); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		for _, op := range Ops {
			cell := Measurement{System: fmt.Sprintf("Hillview%dx", scale), Op: op.Name}
			start := time.Now()
			var once sync.Once
			var first time.Duration
			bytes0 := env.Cluster.BytesReceived()
			err := op.Hillview(context.Background(), view, func(engine.Partial) {
				once.Do(func() { first = time.Since(start) })
			})
			cell.Elapsed = time.Since(start)
			cell.FirstPartial = first
			cell.Bytes = env.Cluster.BytesReceived() - bytes0
			cell.Err = err
			out.Cells = append(out.Cells, cell)
		}
	}

	// --- Spark-like baseline, in-process, warm ---
	eng := sparklike.New(p.Workers * p.WorkerParallelism)
	parts := GenScale(p, sparkScale)
	for _, op := range Ops {
		senv := NewSparkEnv(eng, parts)
		eng.ResetCounters()
		cell := Measurement{System: fmt.Sprintf("Spark%dx", sparkScale), Op: op.Name}
		start := time.Now()
		cell.Err = op.Spark(senv)
		cell.Elapsed = time.Since(start)
		cell.Bytes = eng.BytesCollected()
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// Print renders the two Figure 5 panels.
func (r *Fig5Result) Print(w io.Writer) {
	systems := orderedSystems(r.Cells)
	fmt.Fprintln(w, "Figure 5 (top): end-to-end response time (ms); F = first partial (ms)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "op")
	for _, s := range systems {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintf(tw, "\t%sF\n", systems[len(systems)-1])
	for _, op := range Ops {
		fmt.Fprintf(tw, "%s", op.Name)
		var lastFirst time.Duration
		for _, s := range systems {
			c := findCell(r.Cells, s, op.Name)
			if c == nil || c.Err != nil {
				fmt.Fprintf(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.0f", float64(c.Elapsed.Microseconds())/1000)
			lastFirst = c.FirstPartial
		}
		if lastFirst > 0 {
			fmt.Fprintf(tw, "\t%.0f\n", float64(lastFirst.Microseconds())/1000)
		} else {
			fmt.Fprintf(tw, "\t-\n")
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "\nFigure 5 (bottom): data received by root (KB, log scale in the paper)")
	tw = tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "op")
	for _, s := range systems {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for _, op := range Ops {
		fmt.Fprintf(tw, "%s", op.Name)
		for _, s := range systems {
			c := findCell(r.Cells, s, op.Name)
			if c == nil || c.Err != nil {
				fmt.Fprintf(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.1f", float64(c.Bytes)/1024)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RunFig6 measures the cold-data path: shards on disk as .hvc files,
// worker caches dropped before every operation, so each measurement
// pays the load from storage (Figure 6; O4 and O6 excluded as in the
// paper).
func RunFig6(p Params, scales []int, dir string) (*Fig5Result, error) {
	out := &Fig5Result{Params: p}
	env, err := StartHV(p)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	for _, scale := range scales {
		src, err := WriteColdShards(p, scale, dir)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("cold-%dx", scale)
		view, err := env.Sheet.Load(context.Background(), name, src)
		if err != nil {
			return nil, err
		}
		for _, op := range Ops {
			if !op.ColdEligible {
				continue
			}
			// Evict everything: the op's first access replays the load,
			// reading the files again.
			for _, w := range env.workers {
				w.DropAll()
			}
			env.Sheet.Root().Cache().InvalidateDataset(name)
			cell := Measurement{System: fmt.Sprintf("Hillview%dxCold", scale), Op: op.Name}
			start := time.Now()
			var once sync.Once
			var first time.Duration
			cell.Err = op.Hillview(context.Background(), view, func(engine.Partial) {
				once.Do(func() { first = time.Since(start) })
			})
			cell.Elapsed = time.Since(start)
			cell.FirstPartial = first
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// PrintFig6 renders the cold-data latency panel.
func (r *Fig5Result) PrintFig6(w io.Writer) {
	systems := orderedSystems(r.Cells)
	fmt.Fprintln(w, "Figure 6: cold-data response time (ms), first partial in parentheses")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "op")
	for _, s := range systems {
		fmt.Fprintf(tw, "\t%s", s)
	}
	fmt.Fprintln(tw)
	for _, op := range Ops {
		if !op.ColdEligible {
			continue
		}
		fmt.Fprintf(tw, "%s", op.Name)
		for _, s := range systems {
			c := findCell(r.Cells, s, op.Name)
			if c == nil || c.Err != nil {
				fmt.Fprintf(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.0f (%.0f)", float64(c.Elapsed.Microseconds())/1000, float64(c.FirstPartial.Microseconds())/1000)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// MicroResult reproduces the §7.2.1 single-thread table.
type MicroResult struct {
	Rows                         int
	Streaming, Sampling, DBMilli float64
}

// RunMicro measures a histogram over rows values on one thread three
// ways: the streaming vizketch, the sampled vizketch (display-derived
// sample size), and the general-purpose row database.
func RunMicro(rows int, seed uint64) (*MicroResult, error) {
	t := flights.Gen("micro", rows, seed, flights.CoreColumns)
	col := "Distance"
	rng, err := (&sketch.RangeSketch{Col: col}).Summarize(t)
	if err != nil {
		return nil, err
	}
	r := rng.(*sketch.DataRange)
	spec := sketch.NumericBuckets(table.KindDouble, r.Min, r.Max, 25)

	out := &MicroResult{Rows: rows}

	start := time.Now()
	if _, err := (&sketch.HistogramSketch{Col: col, Buckets: spec}).Summarize(t); err != nil {
		return nil, err
	}
	out.Streaming = ms(time.Since(start))

	rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), rows)
	start = time.Now()
	if _, err := (&sketch.HistogramSketch{Col: col, Buckets: spec, Rate: rate, Seed: seed}).Summarize(t); err != nil {
		return nil, err
	}
	out.Sampling = ms(time.Since(start))

	db := rowdb.New()
	if err := db.LoadColumnar("flights", t, []string{"Carrier"}); err != nil {
		return nil, err
	}
	dbt, err := db.Table("flights")
	if err != nil {
		return nil, err
	}
	pos, err := dbt.ColPos(col)
	if err != nil {
		return nil, err
	}
	width := (r.Max - r.Min) / 25
	start = time.Now()
	if _, err := db.Execute(rowdb.Query{
		Table:   "flights",
		GroupBy: rowdb.FloorDiv{X: rowdb.Col{Pos: pos}, Off: r.Min, Width: width},
		Aggs:    []rowdb.Agg{{Kind: rowdb.AggCount}},
	}); err != nil {
		return nil, err
	}
	out.DBMilli = ms(time.Since(start))
	return out, nil
}

// Print renders the §7.2.1 table.
func (r *MicroResult) Print(w io.Writer) {
	fmt.Fprintf(w, "§7.2.1 single-thread histogram over %d rows (paper: 100M rows → 527/197/5830 ms)\n", r.Rows)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "method\ttime (ms)\n")
	fmt.Fprintf(tw, "streaming\t%.1f\n", r.Streaming)
	fmt.Fprintf(tw, "sampling\t%.1f\n", r.Sampling)
	fmt.Fprintf(tw, "database system\t%.1f\n", r.DBMilli)
	tw.Flush()
}

// ScalePoint is one point of a scalability curve.
type ScalePoint struct {
	N                   int // leaves (Fig 7) or servers (Fig 8)
	SampledMS, StreamMS float64
}

// scaleReps is how many times each scalability point is measured; the
// median is reported (the paper: "we run each measurement multiple
// times … excluding the fastest and slowest").
const scaleReps = 7

// medianMS runs f scaleReps times and returns the median latency.
func medianMS(f func() error) (float64, error) {
	times := make([]float64, 0, scaleReps)
	for i := 0; i < scaleReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	sortFloats(times)
	return times[len(times)/2], nil
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// RunFig7 measures latency as leaves (and shards, hence data) grow
// together on one machine: streaming should stay flat until the core
// count is exhausted; sampling should fall super-linearly because the
// display-derived sample size is constant (§7.2.2).
func RunFig7(rowsPerLeaf int, leafCounts []int, seed uint64) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, leaves := range leafCounts {
		parts := flights.GenPartitions(fmt.Sprintf("fig7-%d", leaves), rowsPerLeaf*leaves, leaves, seed, flights.CoreColumns)
		ds := engine.NewLocal(fmt.Sprintf("fig7-%d", leaves), parts, engine.Config{Parallelism: leaves, AggregationWindow: -1})
		totalRows := rowsPerLeaf * leaves
		spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)

		stream := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
		streamMS, err := medianMS(func() error {
			_, err := ds.Sketch(context.Background(), stream, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), totalRows)
		sampled := &sketch.HistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: seed}
		sampledMS, err := medianMS(func() error {
			_, err := ds.Sketch(context.Background(), sampled, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{N: leaves, StreamMS: streamMS, SampledMS: sampledMS})
	}
	return out, nil
}

// RunFig8 measures latency as servers (in-process TCP workers with a
// fixed per-server core budget) and data grow together; ideal is a flat
// streaming curve and a super-linear sampled curve (Figure 8, log-scale
// Y in the paper).
func RunFig8(p Params, rowsPerLeaf, leavesPerServer int, serverCounts []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, servers := range serverCounts {
		q := p
		q.Workers = servers
		q.PartsPerWorker = leavesPerServer
		env, err := StartHV(q)
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf("flights:rows=%d,parts=%d,cols=%d,seed=%d00{worker}",
			rowsPerLeaf*leavesPerServer, leavesPerServer, flights.CoreColumns, q.Seed)
		name := fmt.Sprintf("fig8-%d", servers)
		if _, err := env.Sheet.Load(context.Background(), name, src); err != nil {
			env.Close()
			return nil, err
		}
		totalRows := rowsPerLeaf * leavesPerServer * servers
		spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)

		stream := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
		streamMS, err := medianMS(func() error {
			// The streaming histogram is deterministic and hence
			// cacheable; drop its entry so every repetition computes.
			env.Sheet.Root().Cache().InvalidateDataset(name)
			_, err := env.Sheet.Root().RunSketch(context.Background(), name, stream, nil)
			return err
		})
		if err != nil {
			env.Close()
			return nil, err
		}
		rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), totalRows)
		sampledMS, err := medianMS(func() error {
			// A fresh seed each repetition: caching a deterministic
			// result would turn the measurement into a cache probe.
			sampled := &sketch.HistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: q.Seed + uint64(time.Now().UnixNano())}
			_, err := env.Sheet.Root().RunSketch(context.Background(), name, sampled, nil)
			return err
		})
		if err != nil {
			env.Close()
			return nil, err
		}
		out = append(out, ScalePoint{N: servers, StreamMS: streamMS, SampledMS: sampledMS})
		env.Close()
	}
	return out, nil
}

// PrintScale renders a scalability curve table.
func PrintScale(w io.Writer, title, unit string, points []ScalePoint) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tsampled (ms)\tstreaming (ms)\n", unit)
	for _, pt := range points {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\n", pt.N, pt.SampledMS, pt.StreamMS)
	}
	tw.Flush()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func findCell(cells []Measurement, system, op string) *Measurement {
	for i := range cells {
		if cells[i].System == system && cells[i].Op == op {
			return &cells[i]
		}
	}
	return nil
}

func orderedSystems(cells []Measurement) []string {
	var out []string
	seen := map[string]bool{}
	// Spark first, then Hillview scales, preserving first-seen order
	// within each family.
	for pass := 0; pass < 2; pass++ {
		for _, c := range cells {
			isSpark := len(c.System) > 5 && c.System[:5] == "Spark"
			if (pass == 0) != isSpark || seen[c.System] {
				continue
			}
			seen[c.System] = true
			out = append(out, c.System)
		}
	}
	return out
}
