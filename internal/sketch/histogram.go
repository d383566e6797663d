package sketch

import (
	"fmt"

	"repro/internal/table"
)

// Histogram is the summary produced by histogram and CDF vizketches: one
// count per bucket plus missing/out-of-range tallies. When SampleRate < 1
// the counts are sample counts (divide by SampleRate to estimate the
// population's). Its size
// is O(buckets) — independent of the data (paper §4.2).
type Histogram struct {
	Buckets    BucketSpec
	Counts     []int64
	Missing    int64
	OutOfRange int64
	// SampleRate is the per-row inclusion probability used by every leaf
	// (1 for streaming sketches).
	SampleRate float64
	// SampledRows is the number of rows actually inspected.
	SampledRows int64
}

// MaxCount returns the largest bucket count (sample scale).
func (h *Histogram) MaxCount() int64 {
	var m int64
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// TotalCount returns the sum of bucket counts (sample scale).
func (h *Histogram) TotalCount() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// CDF returns the cumulative fraction per bucket in [0, 1]; the last
// entry is 1 unless the histogram is empty.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Counts))
	total := float64(h.TotalCount())
	if total == 0 {
		return out
	}
	var run int64
	for i, c := range h.Counts {
		run += c
		out[i] = float64(run) / total
	}
	return out
}

// HistogramSketch computes the histogram behind bar charts and CDF
// plots: a CDF is a histogram with one bucket per horizontal pixel,
// rendered as its prefix sum (paper App. B.1). A Rate in (0, 1) samples
// member rows uniformly at that rate, chosen by the planner from the
// display resolution (paper §4.3) and drawn deterministically in (Seed,
// partition ID); any other Rate scans and counts every member row
// (App. B.1 "Histogram (streaming)", for "users [who] want to get the
// results precise to the last digit").
type HistogramSketch struct {
	Col     string
	Buckets BucketSpec
	// Rate is the per-row inclusion probability, identical at every leaf
	// (the planner's targetSize / N); read by sampleRate.
	Rate float64
	// Seed drives the sampling; recorded in the redo log for replay.
	Seed uint64
}

// SampledHistogramSketch is HistogramSketch under the name the
// benchmark harness (benchmark/seam.go) still uses.
type SampledHistogramSketch = HistogramSketch

// Name implements Sketch. The zero Rate and Seed of the exact
// histogram charts send are left out.
func (s *HistogramSketch) Name() string {
	if s.Rate == 0 && s.Seed == 0 {
		return fmt.Sprintf("histogram(%s,%s)", s.Col, s.Buckets)
	}
	return fmt.Sprintf("histogram(%s,%s,r=%g,seed=%d)", s.Col, s.Buckets, s.Rate, s.Seed)
}

// CacheKey implements Cacheable. A seedless histogram is a pure function
// of its configuration and the data, so repeats are served from the
// computation cache. A seeded one is the planner's fresh sample of one
// request: its key is empty, which engine.Key reads as not cacheable.
func (s *HistogramSketch) CacheKey() string {
	if s.Seed != 0 {
		return ""
	}
	return s.Name()
}

// Zero implements Sketch.
func (s *HistogramSketch) Zero() Result {
	return &Histogram{Buckets: s.Buckets, Counts: make([]int64, s.Buckets.NumBuckets()), SampleRate: sampleRate(s.Rate)}
}

// Summarize implements Sketch via the batch kernels: spans of the
// membership, or the deterministic sample rows gathered into batches,
// are bucket-indexed and tallied kernelBatch rows at a time — so a
// sample is identical to sampling row at a time with the same (Seed,
// partition) pair.
func (s *HistogramSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	bi, err := s.Buckets.BatchIndexer(col)
	if err != nil {
		return nil, err
	}
	h := s.Zero().(*Histogram)
	if h.SampleRate < 1 {
		histogramSampleScan(t.Members(), bi, h, h.SampleRate, PartitionSeed(s.Seed, t.ID()))
	} else {
		histogramScan(t.Members(), bi, h)
	}
	return h, nil
}

// Merge implements Sketch.
func (s *HistogramSketch) Merge(a, b Result) (Result, error) {
	ha, ok1 := a.(*Histogram)
	hb, ok2 := b.(*Histogram)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: histogram merge got %T and %T", a, b)
	}
	if len(ha.Counts) != len(hb.Counts) {
		return nil, fmt.Errorf("sketch: histogram merge with %d vs %d buckets", len(ha.Counts), len(hb.Counts))
	}
	out := &Histogram{
		Buckets:     ha.Buckets,
		Counts:      make([]int64, len(ha.Counts)),
		Missing:     ha.Missing + hb.Missing,
		OutOfRange:  ha.OutOfRange + hb.OutOfRange,
		SampleRate:  ha.SampleRate,
		SampledRows: ha.SampledRows + hb.SampledRows,
	}
	for i := range out.Counts {
		out.Counts[i] = ha.Counts[i] + hb.Counts[i]
	}
	return out, nil
}
