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

// HistogramSketch computes an exact (streaming) histogram: every member
// row is scanned and counted (paper App. B.1 "Histogram (streaming)",
// for "users [who] want to get the results precise to the last digit").
type HistogramSketch struct {
	Col     string
	Buckets BucketSpec
}

// Name implements Sketch.
func (s *HistogramSketch) Name() string {
	return fmt.Sprintf("histogram(%s,%s)", s.Col, s.Buckets)
}

// CacheKey implements Cacheable: the streaming histogram is
// deterministic.
func (s *HistogramSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *HistogramSketch) Zero() Result {
	return &Histogram{Buckets: s.Buckets, Counts: make([]int64, s.Buckets.NumBuckets()), SampleRate: 1}
}

// Summarize implements Sketch via the batch kernels: spans of the
// membership are bucket-indexed and tallied kernelBatch rows at a time.
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
	histogramScan(t.Members(), bi, h)
	return h, nil
}

// Merge implements Sketch.
func (s *HistogramSketch) Merge(a, b Result) (Result, error) {
	return mergeHistograms(a, b)
}

// SampledHistogramSketch computes an approximate histogram by uniform
// row sampling at a fixed rate chosen by the planner from the display
// resolution (paper §4.3). Per-partition sampling is deterministic in
// (Seed, partition ID).
type SampledHistogramSketch struct {
	Col     string
	Buckets BucketSpec
	// Rate is the per-row inclusion probability, identical at every leaf
	// (computed by the planner as targetSize / N).
	Rate float64
	// Seed drives the sampling; recorded in the redo log for replay.
	Seed uint64
}

// Name implements Sketch.
func (s *SampledHistogramSketch) Name() string {
	return fmt.Sprintf("sampled-histogram(%s,%s,r=%g,seed=%d)", s.Col, s.Buckets, s.Rate, s.Seed)
}

// Zero implements Sketch.
func (s *SampledHistogramSketch) Zero() Result {
	return &Histogram{Buckets: s.Buckets, Counts: make([]int64, s.Buckets.NumBuckets()), SampleRate: s.Rate}
}

// Summarize implements Sketch. The deterministic sample rows are
// gathered into batches and bucket-indexed by the same kernels as the
// exact scan, so the result is identical to sampling row at a time with
// the same (Seed, partition) pair.
func (s *SampledHistogramSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	bi, err := s.Buckets.BatchIndexer(col)
	if err != nil {
		return nil, err
	}
	h := s.Zero().(*Histogram)
	histogramSampleScan(t.Members(), bi, h, s.Rate, PartitionSeed(s.Seed, t.ID()))
	return h, nil
}

// Merge implements Sketch.
func (s *SampledHistogramSketch) Merge(a, b Result) (Result, error) {
	return mergeHistograms(a, b)
}

func mergeHistograms(a, b Result) (Result, error) {
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

// CDFSketch computes the summary behind a CDF plot: a fine-grained
// histogram with one bucket per horizontal pixel, sampled at the
// CDF rate (paper App. B.1). Rendering takes the prefix-sum of the
// result. A zero Rate means exact computation.
type CDFSketch struct {
	Col     string
	Buckets BucketSpec // Count = horizontal pixels
	Rate    float64
	Seed    uint64
}

// Name implements Sketch.
func (s *CDFSketch) Name() string {
	return fmt.Sprintf("cdf(%s,%s,r=%g,seed=%d)", s.Col, s.Buckets, s.Rate, s.Seed)
}

// Zero implements Sketch.
func (s *CDFSketch) Zero() Result {
	rate := s.Rate
	if rate <= 0 {
		rate = 1
	}
	return &Histogram{Buckets: s.Buckets, Counts: make([]int64, s.Buckets.NumBuckets()), SampleRate: rate}
}

// Summarize implements Sketch.
func (s *CDFSketch) Summarize(t *table.Table) (Result, error) {
	inner := &SampledHistogramSketch{Col: s.Col, Buckets: s.Buckets, Rate: s.Rate, Seed: s.Seed}
	if s.Rate <= 0 {
		es := &HistogramSketch{Col: s.Col, Buckets: s.Buckets}
		return es.Summarize(t)
	}
	return inner.Summarize(t)
}

// Merge implements Sketch.
func (s *CDFSketch) Merge(a, b Result) (Result, error) {
	return mergeHistograms(a, b)
}
