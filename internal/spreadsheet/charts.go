package spreadsheet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/wire"
)

// HistogramView is the fully prepared result of a histogram request:
// the bucket geometry from the preparation phase plus the rendered
// summary (and, optionally, the CDF summary computed concurrently, as
// in workload O5 "range + (histogram & cdf)").
type HistogramView struct {
	Col     string
	Buckets sketch.BucketSpec
	Hist    *sketch.Histogram
	CDF     *sketch.Histogram // nil unless requested
	Range   *sketch.DataRange // numeric preparation result
}

// ChartOptions tune chart requests; the zero value uses the package
// defaults.
type ChartOptions struct {
	Width, Height int
	Bars          int
	// Exact disables sampling (the streaming histogram of App. B.1).
	Exact bool
	// WithCDF also computes the CDF summary (in the bars' pass).
	WithCDF bool
	// OnPartial receives progressive updates of the main summary.
	OnPartial engine.PartialFunc
}

// ErrTooManyBars reports a chart asking for more bars than a worker
// decodes in one bucket axis (wire.MaxElems): the root must not build a
// sketch its workers reject as corrupt. It is a 400 at the HTTP surface.
var ErrTooManyBars = errors.New("spreadsheet: too many bars")

func (o *ChartOptions) fill() error {
	if o.Bars > wire.MaxElems {
		return fmt.Errorf("%w: %d exceeds the %d-bucket limit", ErrTooManyBars, o.Bars, wire.MaxElems)
	}
	if o.Width <= 0 {
		o.Width = DefaultWidth
	}
	if o.Height <= 0 {
		o.Height = DefaultHeight
	}
	if o.Bars <= 0 {
		o.Bars = DefaultBars
	}
	return nil
}

// runGroup runs the sketches one gesture needs as one query: a lone
// sketch as itself, several as a sketch.MultiSketch — to the serving
// layer a batch that has already formed, so they share a leaf pass.
// Results come back index-aligned; onFirst gets the partials of sks[0].
func (v *View) runGroup(ctx context.Context, sks []sketch.Sketch, onFirst engine.PartialFunc) ([]sketch.Result, error) {
	if len(sks) == 1 {
		res, err := v.sheet.run.RunSketch(ctx, v.id, sks[0], onFirst)
		return []sketch.Result{res}, err
	}
	multi, err := sketch.NewMultiSketch(sks...)
	if err != nil {
		return nil, err
	}
	var onPartial engine.PartialFunc
	if onFirst != nil {
		onPartial = func(p engine.Partial) {
			if mr, ok := p.Result.(*sketch.MultiResult); ok && len(mr.Members) > 0 && mr.Members[0] != nil {
				onFirst(engine.Partial{Result: mr.Members[0], Done: p.Done, Total: p.Total})
			}
		}
	}
	res, err := v.sheet.run.RunSketch(ctx, v.id, multi, onPartial)
	if err != nil {
		return nil, err
	}
	return res.(*sketch.MultiResult).Members, nil
}

// prepared is one column's share of the preparation phase: the data-wide
// summary its bucket geometry derives from, at any resolution.
type prepared struct {
	kind table.Kind
	res  sketch.Result // *sketch.DataRange (numeric) or *sketch.BottomKSet (string)
}

// prepare is the preparation phase (paper §5.3): it computes the
// data-wide parameters a chart's axes need — numeric range or string
// bucket boundaries — through cacheable sketches, all axes in one group.
func (v *View) prepare(ctx context.Context, cols ...string) ([]prepared, error) {
	out := make([]prepared, len(cols))
	sks := make([]sketch.Sketch, len(cols))
	for i, col := range cols {
		kind, err := v.kindOf(ctx, col)
		if err != nil {
			return nil, err
		}
		out[i].kind = kind
		if kind.Numeric() {
			sks[i] = &sketch.RangeSketch{Col: col}
		} else {
			// Strings: buckets from bottom-k distinct sampling (App. B.1).
			sks[i] = &sketch.DistinctBottomKSketch{Col: col, K: 500}
		}
	}
	res, err := v.runGroup(ctx, sks, nil)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].res = res[i]
	}
	return out, nil
}

// buckets derives the axis geometry at the given resolution.
func (p prepared) buckets(bars int) (sketch.BucketSpec, *sketch.DataRange) {
	if r, ok := p.res.(*sketch.DataRange); ok {
		if r.Present == 0 {
			return sketch.NumericBuckets(p.kind, 0, 1, 1), r
		}
		return sketch.NumericBuckets(p.kind, r.Min, r.Max, bars), r
	}
	set := p.res.(*sketch.BottomKSet)
	return set.Buckets(bars), &sketch.DataRange{Kind: p.kind, Present: set.PresentRows}
}

// Histogram runs the two-phase histogram request. Sampled rendering
// derives its rate from the display geometry and total row count; the
// CDF (when requested) shares the bars' pass with its own rate, like the
// "histogram & cdf" operations of Figure 4.
func (v *View) Histogram(ctx context.Context, col string, opts ChartOptions) (*HistogramView, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	axes, err := v.prepare(ctx, col)
	if err != nil {
		return nil, err
	}
	spec, rng := axes[0].buckets(opts.Bars)
	out := &HistogramView{Col: col, Buckets: spec, Range: rng}
	// Bars and CDF are one sketch type. Exact leaves Rate and Seed zero:
	// the deterministic full scan, so repeats dedup and are served from
	// the computation cache. Otherwise each is seeded and runs at the
	// planner's rate, which is 1 — the same exact kernel — wherever
	// sampling would not be the cheaper scan (sketch.HistogramRate).
	n := int(v.NumRows())
	histogram := func(spec sketch.BucketSpec, target int) sketch.Sketch {
		if opts.Exact {
			return &sketch.HistogramSketch{Col: col, Buckets: spec}
		}
		return &sketch.HistogramSketch{Col: col, Buckets: spec, Rate: sketch.HistogramRate(target, n), Seed: v.sheet.nextSeed()}
	}
	sks := []sketch.Sketch{histogram(spec, sketch.HistogramSampleSize(spec.Count, opts.Height, DefaultDelta))}
	if opts.WithCDF && spec.Kind.Numeric() {
		cdfSpec := sketch.NumericBuckets(spec.Kind, spec.Min, spec.Max, opts.Width)
		sks = append(sks, histogram(cdfSpec, sketch.CDFSampleSize(opts.Height, DefaultDelta)))
	}
	res, err := v.runGroup(ctx, sks, opts.OnPartial)
	if err != nil {
		return nil, err
	}
	out.Hist = res[0].(*sketch.Histogram)
	if len(res) > 1 {
		out.CDF = res[1].(*sketch.Histogram)
	}
	return out, nil
}

// Histogram2DView is a prepared 2-D chart (stacked histogram or heat
// map).
type Histogram2DView struct {
	XCol, YCol string
	Result     *sketch.Histogram2D
}

// StackedHistogram runs the two-phase stacked histogram: X buckets at
// bar resolution, Y buckets capped at the distinguishable color count.
// Normalized mode disables sampling (App. B.1).
func (v *View) StackedHistogram(ctx context.Context, xcol, ycol string, normalized bool, opts ChartOptions) (*Histogram2DView, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	axes, err := v.prepare(ctx, xcol, ycol)
	if err != nil {
		return nil, err
	}
	xspec, _ := axes[0].buckets(opts.Bars)
	yspec, _ := axes[1].buckets(DefaultColors)
	var sk *sketch.Histogram2DSketch
	if normalized {
		sk = sketch.NewNormalizedStackedSketch(xcol, ycol, xspec, yspec)
	} else {
		rate := sketch.Rate(sketch.HistogramSampleSize(xspec.Count, opts.Height, DefaultDelta), int(v.NumRows()))
		sk = sketch.NewStackedHistogramSketch(xcol, ycol, xspec, yspec, rate, v.sheet.nextSeed())
	}
	res, err := v.sheet.run.RunSketch(ctx, v.id, sk, opts.OnPartial)
	if err != nil {
		return nil, err
	}
	return &Histogram2DView{XCol: xcol, YCol: ycol, Result: res.(*sketch.Histogram2D)}, nil
}

// Heatmap runs the two-phase heat map: bins of HeatmapCell pixels on
// both axes, density to one color shade of accuracy (§4.3).
func (v *View) Heatmap(ctx context.Context, xcol, ycol string, opts ChartOptions) (*Histogram2DView, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	axes, err := v.prepare(ctx, xcol, ycol)
	if err != nil {
		return nil, err
	}
	xspec, _ := axes[0].buckets(opts.Width / HeatmapCell)
	yspec, _ := axes[1].buckets(opts.Height / HeatmapCell)
	rate := sketch.Rate(sketch.HeatmapSampleSize(xspec.Count, yspec.Count, DefaultColors, DefaultDelta), int(v.NumRows()))
	sk := sketch.NewHeatmapSketch(xcol, ycol, xspec, yspec, rate, v.sheet.nextSeed())
	res, err := v.sheet.run.RunSketch(ctx, v.id, sk, opts.OnPartial)
	if err != nil {
		return nil, err
	}
	return &Histogram2DView{XCol: xcol, YCol: ycol, Result: res.(*sketch.Histogram2D)}, nil
}

// TrellisView is a prepared trellis of heat maps.
type TrellisView struct {
	GroupCol, XCol, YCol string
	Result               *sketch.Trellis
}

// Trellis runs a trellis of heat maps grouped by one column (§4.3,
// App. B.1): k groups rendered in a grid, each plot proportionally
// smaller, all computed in one pass.
func (v *View) Trellis(ctx context.Context, groupCol, xcol, ycol string, groups int, opts ChartOptions) (*TrellisView, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if groups <= 0 {
		groups = 4
	}
	axes, err := v.prepare(ctx, groupCol, xcol, ycol)
	if err != nil {
		return nil, err
	}
	gspec, _ := axes[0].buckets(groups)
	// Each plot gets a fraction of the rendering area.
	cols := int(math.Ceil(math.Sqrt(float64(gspec.Count))))
	if cols < 1 {
		cols = 1
	}
	rowsOf := (gspec.Count + cols - 1) / cols
	if rowsOf < 1 {
		rowsOf = 1
	}
	bx := opts.Width / cols / HeatmapCell
	by := opts.Height / rowsOf / HeatmapCell
	if bx < 1 {
		bx = 1
	}
	if by < 1 {
		by = 1
	}
	xspec, _ := axes[1].buckets(bx)
	yspec, _ := axes[2].buckets(by)
	rate := sketch.Rate(sketch.HeatmapSampleSize(xspec.Count*gspec.Count, yspec.Count, DefaultColors, DefaultDelta), int(v.NumRows()))
	sk := &sketch.TrellisSketch{GroupCol: groupCol, XCol: xcol, YCol: ycol, Group: gspec, X: xspec, Y: yspec, Rate: rate, Seed: v.sheet.nextSeed()}
	res, err := v.sheet.run.RunSketch(ctx, v.id, sk, opts.OnPartial)
	if err != nil {
		return nil, err
	}
	return &TrellisView{GroupCol: groupCol, XCol: xcol, YCol: ycol, Result: res.(*sketch.Trellis)}, nil
}

// --- Analyses (paper §3.3) ---

// HeavyHitters finds values of col above roughly a 1/K frequency.
// Sampled mode uses the sampling vizketch (efficient for small K);
// otherwise Misra–Gries scans everything.
func (v *View) HeavyHitters(ctx context.Context, col string, k int, sampled bool) ([]sketch.HHItem, error) {
	var sk sketch.Sketch
	if sampled {
		rate := sketch.Rate(sketch.HeavyHittersSampleSize(k, DefaultDelta), int(v.NumRows()))
		sk = &sketch.SampleHeavyHittersSketch{Col: col, K: k, Rate: rate, Seed: v.sheet.nextSeed()}
	} else {
		sk = &sketch.MisraGriesSketch{Col: col, K: k}
	}
	res, err := v.sheet.run.RunSketch(ctx, v.id, sk, nil)
	if err != nil {
		return nil, err
	}
	return res.(*sketch.HeavyHitters).Hitters(), nil
}

// DistinctCount estimates the number of distinct values in col.
func (v *View) DistinctCount(ctx context.Context, col string) (float64, error) {
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.DistinctCountSketch{Col: col}, nil)
	if err != nil {
		return 0, err
	}
	return res.(*sketch.HLL).Estimate(), nil
}

// ColumnSummary returns moments for a numeric column (the column
// statistics popup).
func (v *View) ColumnSummary(ctx context.Context, col string) (*sketch.Moments, error) {
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.MomentsSketch{Col: col, K: 4}, nil)
	if err != nil {
		return nil, err
	}
	return res.(*sketch.Moments), nil
}

// SaveCSV writes the view through the save vizketch path (§5.4): each
// partition's rows are written, one CSV file per partition under path,
// by the storage layer of the process that holds the partition.
func (v *View) SaveCSV(ctx context.Context, path string) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	res, err := v.sheet.root.RunSketch(ctx, v.id, &storage.SaveSketch{Dir: path}, nil)
	if err != nil {
		return err
	}
	sr := res.(*storage.SaveResult)
	if len(sr.Errors) > 0 {
		return fmt.Errorf("spreadsheet: save: %s", strings.Join(sr.Errors, "; "))
	}
	return nil
}
