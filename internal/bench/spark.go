package bench

import (
	"sort"

	"repro/internal/baseline/sparklike"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/table"
)

// SparkEnv runs the Figure 4 operations on the Spark-like baseline.
// Each operation computes the same partial result per partition as the
// corresponding Hillview vizketch (the paper: "we use the same
// optimizations for each query as Hillview, including sampling") but
// ships every partition's result to the driver as generic Row objects
// and merges there — no aggregation tree, no progressive updates.
type SparkEnv struct {
	Eng  *sparklike.Engine
	RDD  *sparklike.RDD
	Rows int64
	seed uint64
}

// NewSparkEnv wraps partitions.
func NewSparkEnv(eng *sparklike.Engine, parts []*table.Table) *SparkEnv {
	var rows int64
	for _, p := range parts {
		rows += int64(p.NumRows())
	}
	return &SparkEnv{Eng: eng, RDD: eng.Parallelize(parts), Rows: rows, seed: 1}
}

func (e *SparkEnv) nextSeed() uint64 {
	e.seed++
	return e.seed * 0x9e3779b97f4a7c15
}

// rowsFromNextK converts a NextKList into driver Rows.
func rowsFromNextK(l *sketch.NextKList, names []string) []sparklike.Row {
	out := make([]sparklike.Row, len(l.Rows))
	for i, r := range l.Rows {
		m := make(sparklike.Row, len(names)+1)
		for c, name := range names {
			if c < len(r) && !r[c].Missing {
				m[name] = r[c].String()
			}
		}
		m["__count"] = l.Counts[i]
		out[i] = m
	}
	return out
}

// topK computes the first page of a sorted view: per-partition top-K
// (same algorithm as the next-K vizketch), shipped as Rows, merged at
// the driver.
func (e *SparkEnv) topK(order table.RecordOrder, extra []string, k int) error {
	names := append(order.Columns(), extra...)
	sk := &sketch.NextKSketch{Order: order, Extra: extra, K: k}
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		return rowsFromNextK(res.(*sketch.NextKList), names), nil
	})
	if err != nil {
		return err
	}
	// Driver-side merge: concatenate, sort by the string forms, cut to K.
	var all []sparklike.Row
	for _, p := range parts {
		all = append(all, p.([]sparklike.Row)...)
	}
	sort.Slice(all, func(i, j int) bool {
		for _, name := range names {
			a, _ := all[i][name].(string)
			b, _ := all[j][name].(string)
			if a != b {
				return a < b
			}
		}
		return false
	})
	if len(all) > k {
		all = all[:k]
	}
	return nil
}

// quantileTopK samples rows for a quantile estimate, then pages from
// the chosen row — two driver round trips, like the scroll bar.
func (e *SparkEnv) quantileTopK(order table.RecordOrder, q float64, k int) error {
	qs := &sketch.QuantileSketch{Order: order, SampleSize: sketch.QuantileSampleSize(100, 0.01), Seed: e.nextSeed()}
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := qs.Summarize(t)
		if err != nil {
			return nil, err
		}
		set := res.(*sketch.SampleSet)
		rows := make([]sparklike.Row, len(set.Items))
		for i, it := range set.Items {
			m := make(sparklike.Row, len(order))
			for c, col := range order.Columns() {
				if c < len(it.Row) && !it.Row[c].Missing {
					m[col] = it.Row[c].String()
				}
			}
			rows[i] = m
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	var all []sparklike.Row
	for _, p := range parts {
		all = append(all, p.([]sparklike.Row)...)
	}
	first := order.Columns()[0]
	sort.Slice(all, func(i, j int) bool {
		a, _ := all[i][first].(string)
		b, _ := all[j][first].(string)
		return a < b
	})
	_ = q
	return e.topK(order, nil, k)
}

// histogramCDF computes a sampled histogram plus a width-resolution CDF,
// shipping per-partition bucket counts as Rows.
func (e *SparkEnv) histogramCDF(col string, bars, width int) error {
	rng, err := e.rangeOf(col)
	if err != nil {
		return err
	}
	if err := e.bucketCounts(col, sketch.NumericBuckets(table.KindDouble, rng.Min, rng.Max, bars),
		sketch.Rate(sketch.HistogramSampleSize(bars, 100, 0.01), int(e.Rows))); err != nil {
		return err
	}
	return e.bucketCounts(col, sketch.NumericBuckets(table.KindDouble, rng.Min, rng.Max, width),
		sketch.Rate(sketch.CDFSampleSize(100, 0.01), int(e.Rows)))
}

func (e *SparkEnv) filteredHistogramCDF(filterCol, col string, bars, width int) error {
	filtered := e.RDD.Filter(func(t *table.Table, row int) bool {
		v := t.MustColumn(filterCol).Value(row)
		return !v.Missing && v.Double() > 0
	})
	sub := &SparkEnv{Eng: e.Eng, RDD: filtered, Rows: e.Rows, seed: e.seed}
	return sub.histogramCDF(col, bars, width)
}

// rangeOf ships per-partition min/max/count rows to the driver.
func (e *SparkEnv) rangeOf(col string) (*sketch.DataRange, error) {
	rs := &sketch.RangeSketch{Col: col}
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := rs.Summarize(t)
		if err != nil {
			return nil, err
		}
		r := res.(*sketch.DataRange)
		return []sparklike.Row{{"min": r.Min, "max": r.Max, "present": r.Present, "missing": r.Missing}}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &sketch.DataRange{Kind: table.KindDouble}
	for i, p := range parts {
		row := p.([]sparklike.Row)[0]
		mn, mx := row["min"].(float64), row["max"].(float64)
		if i == 0 || mn < out.Min {
			out.Min = mn
		}
		if i == 0 || mx > out.Max {
			out.Max = mx
		}
		out.Present += row["present"].(int64)
		out.Missing += row["missing"].(int64)
	}
	return out, nil
}

// bucketCounts ships per-partition (bucket, count) rows.
func (e *SparkEnv) bucketCounts(col string, spec sketch.BucketSpec, rate float64) error {
	sk := &sketch.HistogramSketch{Col: col, Buckets: spec, Rate: rate, Seed: e.nextSeed()}
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		h := res.(*sketch.Histogram)
		var rows []sparklike.Row
		for b, c := range h.Counts {
			if c != 0 {
				rows = append(rows, sparklike.Row{"bucket": int64(b), "count": c})
			}
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	merged := make(map[int64]int64)
	for _, p := range parts {
		for _, row := range p.([]sparklike.Row) {
			merged[row["bucket"].(int64)] += row["count"].(int64)
		}
	}
	return nil
}

// stringHistogram ships per-partition distinct sets, builds buckets at
// the driver, then ships per-partition bucket counts.
func (e *SparkEnv) stringHistogram(col string, bars int) error {
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		c := t.MustColumn(col)
		seen := map[string]bool{}
		t.Members().Iterate(func(row int) bool {
			if v := c.Value(row); !v.Missing {
				seen[v.String()] = true
			}
			return true
		})
		rows := make([]sparklike.Row, 0, len(seen))
		for v := range seen {
			rows = append(rows, sparklike.Row{"v": v})
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	distinct := map[string]bool{}
	for _, p := range parts {
		for _, row := range p.([]sparklike.Row) {
			distinct[row["v"].(string)] = true
		}
	}
	var values []string
	for v := range distinct {
		values = append(values, v)
	}
	sort.Strings(values)
	spec := sketch.StringBucketsFromDistinct(values, bars)
	sk := &sketch.HistogramSketch{Col: col, Buckets: spec}
	_, err = e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		h := res.(*sketch.Histogram)
		var rows []sparklike.Row
		for b, c := range h.Counts {
			if c != 0 {
				rows = append(rows, sparklike.Row{"bucket": int64(b), "count": c})
			}
		}
		return rows, nil
	})
	return err
}

// sampledHeavyHitters ships per-partition sampled value counts.
func (e *SparkEnv) sampledHeavyHitters(col string, k int) error {
	rate := sketch.Rate(sketch.HeavyHittersSampleSize(k, 0.01), int(e.Rows))
	sk := &sketch.SampleHeavyHittersSketch{Col: col, K: k, Rate: rate, Seed: e.nextSeed()}
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		hh := res.(*sketch.HeavyHitters)
		rows := make([]sparklike.Row, 0, len(hh.Counters))
		for v, c := range hh.Counters {
			rows = append(rows, sparklike.Row{"v": v.String(), "count": c})
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	merged := map[string]int64{}
	for _, p := range parts {
		for _, row := range p.([]sparklike.Row) {
			merged[row["v"].(string)] += row["count"].(int64)
		}
	}
	return nil
}

// distinctCount is exact, as a general-purpose engine computes it:
// per-partition distinct sets travel to the driver.
func (e *SparkEnv) distinctCount(col string) error {
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		c := t.MustColumn(col)
		seen := map[int64]bool{}
		t.Members().Iterate(func(row int) bool {
			if v := c.Value(row); !v.Missing {
				seen[v.I] = true
			}
			return true
		})
		vals := make([]int64, 0, len(seen))
		for v := range seen {
			vals = append(vals, v)
		}
		return vals, nil
	})
	if err != nil {
		return err
	}
	distinct := map[int64]bool{}
	for _, p := range parts {
		for _, v := range p.([]int64) {
			distinct[v] = true
		}
	}
	return nil
}

// stackedHistogram ships (xbucket, ybucket, count) rows.
func (e *SparkEnv) stackedHistogram(xcol, ycol string, bars int) error {
	rng, err := e.rangeOf(xcol)
	if err != nil {
		return err
	}
	xspec := sketch.NumericBuckets(table.KindDouble, rng.Min, rng.Max, bars)
	yspec := sketch.StringBucketsFromDistinct(uniqueStrings(e, ycol), spreadsheet.DefaultColors)
	rate := sketch.Rate(sketch.HistogramSampleSize(bars, 100, 0.01), int(e.Rows))
	sk := sketch.NewStackedHistogramSketch(xcol, ycol, xspec, yspec, rate, e.nextSeed())
	return e.ship2D(sk)
}

// heatmap ships the full (x, y, count) grid — the one op where even
// Hillview's summary is large (paper: "the exception, O11, is a
// heatmap").
func (e *SparkEnv) heatmap(xcol, ycol string, bx, by int) error {
	xr, err := e.rangeOf(xcol)
	if err != nil {
		return err
	}
	yr, err := e.rangeOf(ycol)
	if err != nil {
		return err
	}
	xspec := sketch.NumericBuckets(table.KindDouble, xr.Min, xr.Max, bx)
	yspec := sketch.NumericBuckets(table.KindDouble, yr.Min, yr.Max, by)
	rate := sketch.Rate(sketch.HeatmapSampleSize(bx, by, spreadsheet.DefaultColors, 0.01), int(e.Rows))
	sk := sketch.NewHeatmapSketch(xcol, ycol, xspec, yspec, rate, e.nextSeed())
	return e.ship2D(sk)
}

func (e *SparkEnv) ship2D(sk *sketch.Histogram2DSketch) error {
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		res, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		h := res.(*sketch.Histogram2D)
		var rows []sparklike.Row
		for xi := 0; xi < h.X.Count; xi++ {
			for yi := 0; yi < h.Y.Count; yi++ {
				if c := h.At(xi, yi); c != 0 {
					rows = append(rows, sparklike.Row{"x": int64(xi), "y": int64(yi), "count": c})
				}
			}
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	merged := map[[2]int64]int64{}
	for _, p := range parts {
		for _, row := range p.([]sparklike.Row) {
			merged[[2]int64{row["x"].(int64), row["y"].(int64)}] += row["count"].(int64)
		}
	}
	return nil
}

func uniqueStrings(e *SparkEnv, col string) []string {
	parts, err := e.RDD.MapPartitions(func(t *table.Table) (any, error) {
		c := t.MustColumn(col)
		seen := map[string]bool{}
		t.Members().Iterate(func(row int) bool {
			if v := c.Value(row); !v.Missing {
				seen[v.String()] = true
			}
			return true
		})
		var vals []string
		for v := range seen {
			vals = append(vals, v)
		}
		return vals, nil
	})
	if err != nil {
		return nil
	}
	set := map[string]bool{}
	for _, p := range parts {
		for _, v := range p.([]string) {
			set[v] = true
		}
	}
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
