package bench

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/table"
)

// The ablations quantify the engine's design choices (paper §5; the
// ones this engine made are in ROADMAP.md's "Scan geometry and the
// sampling planner" section): the partial-result aggregation window
// (§5.3's 0.1 s), the micropartition size (§5.3's 10–20 M rows), and
// the sampling-versus-streaming crossover that motivates vizketches in
// the first place.

// WindowPoint measures one aggregation-window setting.
type WindowPoint struct {
	Window   time.Duration
	Partials int64
	Bytes    int64
	Latency  time.Duration
}

// RunAblateWindow sweeps the partial-result aggregation window over a
// fixed query and deployment: small windows give fresher progress at
// the cost of more partial traffic — the trade-off §5.3 sets at 0.1 s.
func RunAblateWindow(p Params, windows []time.Duration) ([]WindowPoint, error) {
	var out []WindowPoint
	for _, window := range windows {
		cfg := engine.Config{Parallelism: p.WorkerParallelism, AggregationWindow: window}
		env2, err := StartHVConfig(p, cfg)
		if err != nil {
			return nil, err
		}
		view, err := env2.LoadScale(10)
		if err != nil {
			env2.Close()
			return nil, err
		}
		var partials atomic.Int64
		bytes0 := env2.Cluster.BytesReceived()
		start := time.Now()
		_, err = view.Histogram(context.Background(), "DepDelay", spreadsheet.ChartOptions{
			Bars:      50,
			Exact:     true, // full scan: long enough for windows to matter
			OnPartial: func(engine.Partial) { partials.Add(1) },
		})
		if err != nil {
			env2.Close()
			return nil, err
		}
		out = append(out, WindowPoint{
			Window:   window,
			Partials: partials.Load(),
			Bytes:    env2.Cluster.BytesReceived() - bytes0,
			Latency:  time.Since(start),
		})
		env2.Close()
	}
	return out, nil
}

// PrintWindowAblation renders the window sweep.
func PrintWindowAblation(w io.Writer, points []WindowPoint) {
	fmt.Fprintln(w, "Ablation: partial-result aggregation window (§5.3 picks 100ms)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "window\tpartials\tbytes (KB)\tlatency (ms)\n")
	for _, pt := range points {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\n", pt.Window, pt.Partials, float64(pt.Bytes)/1024, ms(pt.Latency))
	}
	tw.Flush()
}

// MicroPartPoint measures one micropartition-size setting.
type MicroPartPoint struct {
	Rows      int // rows per micropartition
	Parts     int
	StreamMS  float64
	SampledMS float64
}

// RunAblateMicroParts sweeps the micropartition size over a fixed
// dataset on the local engine: too coarse starves the thread pool; too
// fine pays per-partition overhead (§5.3 picks 10–20 M rows at server
// scale). The micropartition is the engine's one scan unit, so a point
// of size ≥ totalRows is one partition folded on one thread.
func RunAblateMicroParts(totalRows int, sizes []int, seed uint64) ([]MicroPartPoint, error) {
	var out []MicroPartPoint
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
	whole := flights.Gen("ablate-mp", totalRows, seed, flights.CoreColumns)
	for _, size := range sizes {
		parts := splitForAblation(whole, size)
		ds := engine.NewLocal("mp", parts, engine.Config{AggregationWindow: -1})
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
		out = append(out, MicroPartPoint{Rows: size, Parts: len(parts), StreamMS: streamMS, SampledMS: sampledMS})
	}
	return out, nil
}

func splitForAblation(t *table.Table, rowsPer int) []*table.Table {
	n := t.NumRows()
	var parts []*table.Table
	for lo := 0; lo < n; lo += rowsPer {
		hi := lo + rowsPer
		if hi > n {
			hi = n
		}
		parts = append(parts, table.SliceRows(t, fmt.Sprintf("%s@%d", t.ID(), lo), lo, hi))
	}
	return parts
}

// PrintMicroPartAblation renders the micropartition sweep.
func PrintMicroPartAblation(w io.Writer, points []MicroPartPoint) {
	fmt.Fprintln(w, "Ablation: micropartition size (§5.3 picks 10-20M rows at server scale)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rows/part\tparts\tstreaming (ms)\tsampled (ms)\n")
	for _, pt := range points {
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.1f\n", pt.Rows, pt.Parts, pt.StreamMS, pt.SampledMS)
	}
	tw.Flush()
}

// CrossoverPoint compares sampled and exact histograms at one data size.
type CrossoverPoint struct {
	Rows      int
	StreamMS  float64
	SampledMS float64
	Rate      float64
}

// RunAblateCrossover sweeps data size with a fixed display: the sampled
// vizketch's cost is bounded by the display-derived target while the
// exact scan grows linearly — the core economics of §4.
func RunAblateCrossover(sizes []int, seed uint64) ([]CrossoverPoint, error) {
	var out []CrossoverPoint
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
	for _, rows := range sizes {
		t := flights.Gen(fmt.Sprintf("ablate-x-%d", rows), rows, seed, flights.CoreColumns)
		stream := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
		streamMS, err := medianMS(func() error {
			_, err := stream.Summarize(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		rate := sketch.Rate(sketch.HistogramSampleSize(25, 100, 0.01), rows)
		sampled := &sketch.HistogramSketch{Col: "Distance", Buckets: spec, Rate: rate, Seed: seed}
		sampledMS, err := medianMS(func() error {
			_, err := sampled.Summarize(t)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, CrossoverPoint{Rows: rows, StreamMS: streamMS, SampledMS: sampledMS, Rate: rate})
	}
	return out, nil
}

// PrintCrossoverAblation renders the crossover sweep.
func PrintCrossoverAblation(w io.Writer, points []CrossoverPoint) {
	fmt.Fprintln(w, "Ablation: sampled vs streaming as data grows (fixed display)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rows\trate\tstreaming (ms)\tsampled (ms)\n")
	for _, pt := range points {
		fmt.Fprintf(tw, "%d\t%.4f\t%.1f\t%.1f\n", pt.Rows, pt.Rate, pt.StreamMS, pt.SampledMS)
	}
	tw.Flush()
}
