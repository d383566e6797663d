package spreadsheet

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/sketch"
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
	// WithCDF also computes the CDF summary (concurrently).
	WithCDF bool
	// OnPartial receives progressive updates of the main summary.
	OnPartial engine.PartialFunc
}

func (o *ChartOptions) fill() {
	if o.Width <= 0 {
		o.Width = DefaultWidth
	}
	if o.Height <= 0 {
		o.Height = DefaultHeight
	}
	if o.Bars <= 0 {
		o.Bars = DefaultBars
	}
}

// prepareBuckets is the preparation phase (paper §5.3): it computes the
// data-wide parameters a chart needs — numeric range or string bucket
// boundaries — through cacheable sketches.
func (v *View) prepareBuckets(ctx context.Context, col string, bars int) (sketch.BucketSpec, *sketch.DataRange, error) {
	kind, err := v.kindOf(ctx, col)
	if err != nil {
		return sketch.BucketSpec{}, nil, err
	}
	if kind.Numeric() {
		res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.RangeSketch{Col: col}, nil)
		if err != nil {
			return sketch.BucketSpec{}, nil, err
		}
		r := res.(*sketch.DataRange)
		if r.Present == 0 {
			return sketch.NumericBuckets(kind, 0, 1, 1), r, nil
		}
		return sketch.NumericBuckets(kind, r.Min, r.Max, bars), r, nil
	}
	// String column: equi-width buckets from bottom-k distinct sampling
	// (App. B.1).
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.DistinctBottomKSketch{Col: col, K: 500}, nil)
	if err != nil {
		return sketch.BucketSpec{}, nil, err
	}
	set := res.(*sketch.BottomKSet)
	return set.Buckets(bars), &sketch.DataRange{Kind: kind, Present: set.PresentRows}, nil
}

// Histogram runs the two-phase histogram request. Sampled rendering
// derives its rate from the display geometry and total row count; the
// CDF (when requested) runs concurrently with its own rate, like the
// "histogram & cdf" operations of Figure 4.
func (v *View) Histogram(ctx context.Context, col string, opts ChartOptions) (*HistogramView, error) {
	opts.fill()
	spec, rng, err := v.prepareBuckets(ctx, col, opts.Bars)
	if err != nil {
		return nil, err
	}
	out := &HistogramView{Col: col, Buckets: spec, Range: rng}
	// Exact names the deterministic streaming histogram for bars and CDF
	// alike: no seed in the name, so repeats dedup and are served from the
	// computation cache. Otherwise the seeded sampled sketches run at the
	// planner's rate, which is 1 — the same exact kernel — wherever
	// sampling would not be the cheaper scan (sketch.HistogramRate).
	n := int(v.NumRows())
	var hist sketch.Sketch = &sketch.HistogramSketch{Col: col, Buckets: spec}
	if !opts.Exact {
		rate := sketch.HistogramRate(sketch.HistogramSampleSize(spec.Count, opts.Height, DefaultDelta), n)
		hist = &sketch.SampledHistogramSketch{Col: col, Buckets: spec, Rate: rate, Seed: v.sheet.nextSeed()}
	}
	var cdf sketch.Sketch
	if opts.WithCDF && spec.Kind.Numeric() {
		cdfSpec := sketch.NumericBuckets(spec.Kind, spec.Min, spec.Max, opts.Width)
		cdf = &sketch.HistogramSketch{Col: col, Buckets: cdfSpec}
		if !opts.Exact {
			rate := sketch.HistogramRate(sketch.CDFSampleSize(opts.Height, DefaultDelta), n)
			cdf = &sketch.CDFSketch{Col: col, Buckets: cdfSpec, Rate: rate, Seed: v.sheet.nextSeed()}
		}
	}

	type result struct {
		res sketch.Result
		err error
		cdf bool
	}
	jobs := 1
	results := make(chan result, 2)
	go func() {
		res, err := v.sheet.run.RunSketch(ctx, v.id, hist, opts.OnPartial)
		results <- result{res: res, err: err}
	}()
	if cdf != nil {
		jobs++
		go func() {
			res, err := v.sheet.run.RunSketch(ctx, v.id, cdf, nil)
			results <- result{res: res, err: err, cdf: true}
		}()
	}
	for i := 0; i < jobs; i++ {
		r := <-results
		if r.err != nil {
			return nil, r.err
		}
		if r.cdf {
			out.CDF = r.res.(*sketch.Histogram)
		} else {
			out.Hist = r.res.(*sketch.Histogram)
		}
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
	opts.fill()
	xspec, _, err := v.prepareBuckets(ctx, xcol, opts.Bars)
	if err != nil {
		return nil, err
	}
	yspec, _, err := v.prepareBuckets(ctx, ycol, DefaultColors)
	if err != nil {
		return nil, err
	}
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
	opts.fill()
	bx := opts.Width / HeatmapCell
	by := opts.Height / HeatmapCell
	xspec, _, err := v.prepareBuckets(ctx, xcol, bx)
	if err != nil {
		return nil, err
	}
	yspec, _, err := v.prepareBuckets(ctx, ycol, by)
	if err != nil {
		return nil, err
	}
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
	opts.fill()
	if groups <= 0 {
		groups = 4
	}
	gspec, _, err := v.prepareBuckets(ctx, groupCol, groups)
	if err != nil {
		return nil, err
	}
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
	xspec, _, err := v.prepareBuckets(ctx, xcol, bx)
	if err != nil {
		return nil, err
	}
	yspec, _, err := v.prepareBuckets(ctx, ycol, by)
	if err != nil {
		return nil, err
	}
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

// PCAResult holds principal components over a column set.
type PCAResult struct {
	Cols        []string
	Eigenvalues []float64
	Components  [][]float64
	Moments     *sketch.CoMoments
}

// PCA computes the top-k principal components of the correlation
// matrix over numeric columns, by a sampling sketch (App. B.3).
func (v *View) PCA(ctx context.Context, cols []string, k int) (*PCAResult, error) {
	rate := sketch.Rate(100000, int(v.NumRows()))
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.PCASketch{Cols: cols, Rate: rate, Seed: v.sheet.nextSeed()}, nil)
	if err != nil {
		return nil, err
	}
	cm := res.(*sketch.CoMoments)
	vals, vecs := cm.PCA(k)
	return &PCAResult{Cols: cols, Eigenvalues: vals, Components: vecs, Moments: cm}, nil
}

// ProjectPCA derives new columns PC0..PC(k-1) holding the projection of
// the rows onto the top components, built as expression columns so the
// engine can recompute them on demand.
func (v *View) ProjectPCA(ctx context.Context, p *PCAResult, k int) (*View, error) {
	if k > len(p.Components) {
		k = len(p.Components)
	}
	cur := v
	for c := 0; c < k; c++ {
		expr := ""
		for i, col := range p.Cols {
			if i > 0 {
				expr += " + "
			}
			expr += fmt.Sprintf("%s * %v", col, p.Components[c][i])
		}
		next, err := cur.DeriveColumn(ctx, fmt.Sprintf("PC%d", c), expr)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// SaveCSV writes the view through the save vizketch path (§5.4): each
// partition's rows are written by the storage layer. On a single
// machine this is a direct export of member rows.
func (v *View) SaveCSV(ctx context.Context, path string) error {
	return saveCSV(ctx, v, path)
}
