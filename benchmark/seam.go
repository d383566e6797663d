package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// The seam probe covers the layers the program records no span for
// today. It assembles the server's own stack in the harness process from
// public constructors — colstore.NewPool → storage.NewPooledSource →
// engine.NewLocalSource → engine.NewRoot → serve.New →
// spreadsheet.NewWithRunner — with a span-recording decorator at every
// public seam, and drives spreadsheet operations through it over the same
// files. What it cannot see from there (HTTP, JSON encoding, the wire)
// the traced run against the real processes covers.

// recorder collects probe spans; ops run one at a time, so a span
// belongs to the op that is current when it ends.
type recorder struct {
	mu    sync.Mutex
	op    int
	t0    time.Time
	spans []span
}

func (r *recorder) begin(op int) {
	r.mu.Lock()
	r.op, r.t0 = op, time.Now()
	r.mu.Unlock()
}

// span records name over [start, now).
func (r *recorder) span(name string, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: r.op, Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// take returns and clears the spans recorded since begin.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// spanRunner decorates spreadsheet.Runner and serve.Runner (the same
// method set). It forwards DatasetGeneration so serve.New still sees an
// engine.GenerationProvider behind the decorator.
type spanRunner struct {
	name string
	rec  *recorder
	run  serve.Runner
	gens engine.GenerationProvider
}

func (s *spanRunner) RunSketch(ctx context.Context, id string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	defer s.rec.span(s.name, time.Now())
	return s.run.RunSketch(ctx, id, sk, onPartial)
}

func (s *spanRunner) DatasetGeneration(id string) uint64 {
	if s.gens == nil {
		return 0
	}
	return s.gens.DatasetGeneration(id)
}

// spanDataSet decorates engine.IDataSet.Sketch; derived datasets stay
// decorated.
type spanDataSet struct {
	engine.IDataSet
	rec *recorder
}

func (d *spanDataSet) Sketch(ctx context.Context, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	defer d.rec.span("probe.dataset", time.Now())
	if onPartial != nil {
		inner := onPartial
		onPartial = func(p engine.Partial) {
			defer d.rec.span("probe.partial", time.Now())
			inner(p)
		}
	}
	return d.IDataSet.Sketch(ctx, sk, onPartial)
}

func (d *spanDataSet) Map(op engine.MapOp, newID string) (engine.IDataSet, error) {
	defer d.rec.span("probe.map", time.Now())
	ds, err := d.IDataSet.Map(op, newID)
	if err != nil {
		return nil, err
	}
	return &spanDataSet{IDataSet: ds, rec: d.rec}, nil
}

// spanSource decorates engine.LeafSource.Acquire: the colstore/storage
// side of every chunk task.
type spanSource struct {
	engine.LeafSource
	rec *recorder
}

func (s *spanSource) Acquire(i int, cols []string) (*table.Table, func(), error) {
	defer s.rec.span("probe.acquire", time.Now())
	return s.LeafSource.Acquire(i, cols)
}

// probeCols names the columns the probes read: two numeric, one string.
type probeCols struct{ num, num2, str string }

var (
	flightsProbe = probeCols{"DepDelay", "ArrDelay", "Origin"}
	evProbe      = probeCols{"lat", "lon", "msg"}
)

// probeSource opens the .hvc files of dir behind a fresh pool.
func probeSource(dir string, budget int64) (*storage.PooledSource, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.hvc"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("probe: no .hvc files in %s (%v)", dir, err)
	}
	sort.Strings(files)
	specs := make([]storage.PooledFileSpec, len(files))
	for i, f := range files {
		specs[i] = storage.PooledFileSpec{Path: f, ID: "probe/" + filepath.Base(f)}
	}
	return storage.NewPooledSource(colstore.NewPool(budget), specs, 0)
}

// seamResult is the seam probe's layer table and the results it captured
// for the codec probes.
type seamResult struct {
	ops     []opBreakdown
	spans   []span
	hist    *sketch.Histogram
	heatmap *sketch.Histogram2D
}

// seamProbe drives reps rounds of the spreadsheet's op classes through
// the decorated stack.
func seamProbe(dir string, budget int64, cols probeCols, reps int) (*seamResult, error) {
	src, err := probeSource(dir, budget)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	rec := &recorder{}
	cfg := engine.Config{}
	root := engine.NewRoot(func(id, _ string) (engine.IDataSet, error) {
		return &spanDataSet{IDataSet: engine.NewLocalSource(id, &spanSource{LeafSource: src, rec: rec}, cfg), rec: rec}, nil
	})
	sched := serve.New(&spanRunner{name: "probe.engine", rec: rec, run: root, gens: root},
		serve.Config{BatchWindow: serve.DefaultBatchWindow})
	sheet := spreadsheet.NewWithRunner(root, &spanRunner{name: "probe.serve", rec: rec, run: sched})
	ctx := context.Background()
	view, err := sheet.Load(ctx, "probe", "probe")
	if err != nil {
		return nil, err
	}
	out := &seamResult{}
	opN := 0
	run := func(f func() error) error {
		opN++
		rec.begin(opN)
		start := time.Now()
		err := f()
		rec.span("probe.op", start)
		spans := rec.take()
		assignParents(spans)
		out.spans = append(out.spans, spans...)
		out.ops = append(out.ops, foldOp(spans))
		return err
	}
	noPartial := func(engine.Partial) {}
	for r := 0; r < reps; r++ {
		steps := []func() error{
			func() error {
				hv, err := view.Histogram(ctx, cols.num, spreadsheet.ChartOptions{Exact: true, Bars: 20 + r, OnPartial: noPartial})
				if err == nil {
					out.hist = hv.Hist
				}
				return err
			},
			func() error {
				_, err := view.Histogram(ctx, cols.num2, spreadsheet.ChartOptions{WithCDF: true, OnPartial: noPartial})
				return err
			},
			func() error {
				hm, err := view.Heatmap(ctx, cols.num, cols.num2, spreadsheet.ChartOptions{})
				if err == nil {
					out.heatmap = hm.Result
				}
				return err
			},
			func() error { _, err := view.HeavyHitters(ctx, cols.str, 10+r, false); return err },
			func() error {
				_, err := view.TableView(ctx, table.Asc(cols.num), []string{cols.str}, 20, nil, nil)
				return err
			},
			func() error {
				_, err := view.FilterExpr(ctx, fmt.Sprintf("%s > %d", cols.num, r))
				return err
			},
		}
		for _, step := range steps {
			if err := run(step); err != nil {
				return nil, fmt.Errorf("seam probe: %w", err)
			}
		}
	}
	return out, nil
}

// timeReps runs f reps times and returns the median seconds.
func timeReps(reps int, f func() error) (float64, error) {
	var s samples
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		s = append(s, time.Since(start).Seconds())
	}
	return s.median(), nil
}

// microBatch is how many calls of a microsecond-scale function are timed
// together, so the clock reads do not show in the result.
const microBatch = 200

// timeMicro returns the median seconds per call of f over reps batches.
func timeMicro(reps int, f func() error) (float64, error) {
	sec, err := timeReps(reps, func() error {
		for i := 0; i < microBatch; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	return sec / microBatch, err
}

// directProbes calls public functions of single layers on the same
// files: sketch kernels through NewAccumulator().Add over acquired
// partitions, the filter map op, Pool.Acquire warm and cold, the result
// codecs, and the JSON encoding of the largest response body.
func directProbes(m report, dir string, cols probeCols, reps int, seam *seamResult) error {
	src, err := probeSource(dir, 0)
	if err != nil {
		return err
	}
	defer src.Close()
	leaves := src.Leaves()
	var rows float64
	for _, l := range leaves {
		rows += float64(l.Hi - l.Lo)
	}
	// scan folds every partition into one accumulator (or, for sketches
	// without one, summarizes and merges), as a single leaf worker would.
	scan := func(sk sketch.Sketch) (sketch.Result, error) {
		needed := sketch.SketchColumns(sk)
		var acc sketch.Accumulator
		if as, ok := sk.(sketch.AccumulatorSketch); ok {
			acc = as.NewAccumulator()
		}
		res := sk.Zero()
		for i := range leaves {
			t, release, err := src.Acquire(i, needed)
			if err != nil {
				return nil, err
			}
			if acc != nil {
				err = acc.Add(t)
			} else {
				var part sketch.Result
				if part, err = sk.Summarize(t); err == nil {
					res, err = sk.Merge(res, part)
				}
			}
			release()
			if err != nil {
				return nil, err
			}
		}
		if acc != nil {
			return acc.Result(), nil
		}
		return res, nil
	}
	rate := func(name string, sk sketch.Sketch) error {
		if _, err := scan(sk); err != nil { // warm the pool: kernels, not page-ins
			return fmt.Errorf("%s: %w", name, err)
		}
		sec, err := timeReps(reps, func() error { _, err := scan(sk); return err })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m.set(name, rows/1e6/sec)
		return nil
	}

	rng, err := scan(&sketch.RangeSketch{Col: cols.num})
	if err != nil {
		return err
	}
	r1 := rng.(*sketch.DataRange)
	rng2, err := scan(&sketch.RangeSketch{Col: cols.num2})
	if err != nil {
		return err
	}
	r2 := rng2.(*sketch.DataRange)
	bk, err := scan(&sketch.DistinctBottomKSketch{Col: cols.str, K: 500})
	if err != nil {
		return err
	}
	xs := sketch.NumericBuckets(r1.Kind, r1.Min, r1.Max, spreadsheet.DefaultBars)
	hx := sketch.NumericBuckets(r1.Kind, r1.Min, r1.Max, spreadsheet.DefaultWidth/spreadsheet.HeatmapCell)
	hy := sketch.NumericBuckets(r2.Kind, r2.Min, r2.Max, spreadsheet.DefaultHeight/spreadsheet.HeatmapCell)
	strSpec := bk.(*sketch.BottomKSet).Buckets(spreadsheet.DefaultBars)
	sampleRate := sketch.Rate(sketch.HistogramSampleSize(xs.Count, spreadsheet.DefaultHeight, spreadsheet.DefaultDelta), int(rows))
	heatRate := sketch.Rate(sketch.HeatmapSampleSize(hx.Count, hy.Count, spreadsheet.DefaultColors, spreadsheet.DefaultDelta), int(rows))
	hist := &sketch.HistogramSketch{Col: cols.num, Buckets: xs}
	for _, p := range []struct {
		name string
		sk   sketch.Sketch
	}{
		{"sketch.hist_exact_mrows_per_s", hist},
		{"sketch.hist_sampled_mrows_per_s", &sketch.SampledHistogramSketch{Col: cols.num, Buckets: xs, Rate: sampleRate, Seed: 1}},
		{"sketch.hist_string_mrows_per_s", &sketch.HistogramSketch{Col: cols.str, Buckets: strSpec}},
		{"sketch.hist2d_mrows_per_s", sketch.NewHeatmapSketch(cols.num, cols.num2, hx, hy, heatRate, 1)},
		{"sketch.heavyhitters_mrows_per_s", &sketch.MisraGriesSketch{Col: cols.str, K: 20}},
		{"sketch.nextk_mrows_per_s", &sketch.NextKSketch{Order: table.Asc(cols.num), Extra: []string{cols.str}, K: 20}},
		{"sketch.range_mrows_per_s", &sketch.RangeSketch{Col: cols.num}},
	} {
		if err := rate(p.name, p.sk); err != nil {
			return err
		}
	}

	// sketch.merge_us: MergeTree over one summary per partition.
	parts := make([]sketch.Result, len(leaves))
	for i := range leaves {
		t, release, err := src.Acquire(i, []string{cols.num})
		if err != nil {
			return err
		}
		parts[i], err = hist.Summarize(t)
		release()
		if err != nil {
			return err
		}
	}
	sec, err := timeMicro(reps, func() error { _, err := sketch.MergeTree(hist, parts...); return err })
	if err != nil {
		return err
	}
	m.set("sketch.merge_us", sec*1e6)

	// expr.filter_mrows_per_s: the filter map op over one partition.
	t0, release0, err := src.Acquire(0, []string{cols.num})
	if err != nil {
		return err
	}
	fop := engine.FilterOp{Predicate: fmt.Sprintf("%s > %g", cols.num, (r1.Min+r1.Max)/2)}
	sec, err = timeReps(reps, func() error { _, err := fop.Apply(t0, "probe-filter"); return err })
	release0()
	if err != nil {
		return err
	}
	m.set("expr.filter_mrows_per_s", float64(leaves[0].Hi-leaves[0].Lo)/1e6/sec)

	// colstore: Pool.Acquire of one resident column.
	one := []string{cols.num}
	sec, err = timeMicro(reps, func() error {
		_, release, err := src.Acquire(0, one)
		if err == nil {
			release()
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("colstore.acquire_warm_us", sec*1e6)
	// Cold: the first Acquire through a fresh mapping pays the CRC32-C
	// pass over the column block and its page-ins. (Re-acquiring a column
	// the pool merely evicted is warm-priced; its page faults land in the
	// scan that touches the pages.)
	var cold samples
	var colBytes int64
	for i := 0; i < reps; i++ {
		fresh, err := probeSource(dir, 0)
		if err != nil {
			return err
		}
		start := time.Now()
		_, release, err := fresh.Acquire(0, one)
		if err == nil {
			cold = append(cold, time.Since(start).Seconds())
			colBytes = fresh.Pool().Stats().Resident
			release()
		}
		fresh.Close()
		if err != nil {
			return err
		}
	}
	m.set("colstore.acquire_cold_ms", cold.median()*1e3)
	m.set("colstore.cold_mb_per_s", float64(colBytes)/(1<<20)/cold.median())

	// wire: encode + decode of the results the seam probe captured.
	roundtrip := func(name string, res sketch.Result) error {
		var buf []byte
		sec, err := timeMicro(reps, func() error {
			b, ok := sketch.AppendResultWire(buf[:0], res)
			if !ok {
				return fmt.Errorf("%s: %T has no wire codec", name, res)
			}
			buf = b
			_, _, err := sketch.DecodeResultWire(b)
			return err
		})
		if err != nil {
			return err
		}
		m.set(name, sec*1e6)
		return nil
	}
	if err := roundtrip("wire.hist_roundtrip_us", seam.hist); err != nil {
		return err
	}
	if err := roundtrip("wire.hist2d_roundtrip_us", seam.heatmap); err != nil {
		return err
	}

	// http.json_encode_us: the heatmap body is the largest response the
	// server encodes (x, y, counts, rate — the fields handleHeatmap writes).
	hm := seam.heatmap
	body := map[string]any{"x": hm.X, "y": hm.Y, "counts": hm.Counts, "rate": hm.SampleRate}
	sec, err = timeMicro(reps, func() error { _, err := json.Marshal(body); return err })
	if err != nil {
		return err
	}
	m.set("http.json_encode_us", sec*1e6)
	return nil
}
