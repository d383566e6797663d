package sketch

import (
	"fmt"
	"sync"

	"repro/internal/table"
)

// Histogram2D is the summary behind stacked histograms, normalized
// stacked histograms, and heat maps (paper App. B.1): a Bx × By count
// matrix plus per-X tallies of rows whose Y value is missing or out of
// range (stacked histograms must still show those rows in the X bar).
type Histogram2D struct {
	X, Y BucketSpec
	// Counts is row-major: Counts[xi*Y.Count + yi].
	Counts []int64
	// YOther[xi] counts rows in X bucket xi whose Y is missing or out of
	// range.
	YOther []int64
	// XMissing counts rows whose X value is missing or out of range.
	XMissing    int64
	SampleRate  float64
	SampledRows int64
}

// At returns the sample-scale count of cell (xi, yi).
func (h *Histogram2D) At(xi, yi int) int64 { return h.Counts[xi*h.Y.Count+yi] }

// XTotal returns the total sample-scale count of X bucket xi including
// rows with missing/out-of-range Y.
func (h *Histogram2D) XTotal(xi int) int64 {
	var t int64 = h.YOther[xi]
	for yi := 0; yi < h.Y.Count; yi++ {
		t += h.At(xi, yi)
	}
	return t
}

// MaxCell returns the largest cell count (heat map color scaling).
func (h *Histogram2D) MaxCell() int64 {
	var m int64
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Histogram2DSketch counts rows over a two-dimensional bucket grid. A
// Rate outside (0, 1) scans every member row (sampleRate) — required by
// the normalized stacked histogram (paper App. B.1: a small X bin
// normalized to a full bar would amplify sampling error) and by
// log-scale heat maps; other uses sample (paper §4.3, heat map target
// n = O(c²Bx²By²·log(1/δ))).
type Histogram2DSketch struct {
	XCol, YCol string
	X, Y       BucketSpec
	Rate       float64
	Seed       uint64
}

// Name implements Sketch.
func (s *Histogram2DSketch) Name() string {
	return fmt.Sprintf("hist2d(%s,%s,%s,%s,r=%g,seed=%d)", s.XCol, s.YCol, s.X, s.Y, s.Rate, s.Seed)
}

// Zero implements Sketch.
func (s *Histogram2DSketch) Zero() Result {
	return &Histogram2D{
		X:          s.X,
		Y:          s.Y,
		Counts:     make([]int64, s.X.NumBuckets()*s.Y.NumBuckets()),
		YOther:     make([]int64, s.X.NumBuckets()),
		SampleRate: sampleRate(s.Rate),
	}
}

// slotBuffers recycles the pair of slot buffers a 2-D scan indexes its
// two axes into, so a partition allocates only its count matrix.
var slotBuffers = sync.Pool{New: func() any { return new([2][kernelBatch]int32) }}

// Summarize implements Sketch. Both axes are mapped to tally slots
// (BatchIndexer) over the same row batches, and every row adds one to
// cell (x slot, y slot) of a flat (Bx+2)·(By+2) matrix, with no branch
// on missing or out-of-range values. The matrix is then compacted in
// place into the result: slot rows 0 and 1 of X sum into XMissing, slot
// columns 0 and 1 of Y into YOther, and the rest is Counts.
func (s *Histogram2DSketch) Summarize(t *table.Table) (Result, error) {
	xcol, err := t.Column(s.XCol)
	if err != nil {
		return nil, err
	}
	ycol, err := t.Column(s.YCol)
	if err != nil {
		return nil, err
	}
	xIdx, err := s.X.BatchIndexer(xcol)
	if err != nil {
		return nil, err
	}
	yIdx, err := s.Y.BatchIndexer(ycol)
	if err != nil {
		return nil, err
	}
	nx, ny := s.X.NumBuckets(), s.Y.NumBuckets()
	w := ny + 2 // the Y slots of one X slot
	stride := int32(w)
	cells := make([]int64, (nx+2)*w)
	bufs := slotBuffers.Get().(*[2][kernelBatch]int32)
	defer slotBuffers.Put(bufs)
	xb, yb := bufs[0][:], bufs[1][:]
	var n int64
	tally := func(k int) {
		n += int64(k)
		xs := xb[:k]
		ys := yb[:len(xs)]
		for i, x := range xs {
			cells[x*stride+ys[i]]++
		}
	}
	rate := sampleRate(s.Rate)
	if rate >= 1 {
		scanBatches(t.Members(),
			func(a, b int) {
				xIdx.IndexSpan(a, b, xb[:b-a])
				yIdx.IndexSpan(a, b, yb[:b-a])
				tally(b - a)
			},
			func(rows []int32) {
				xIdx.IndexRows(rows, xb[:len(rows)])
				yIdx.IndexRows(rows, yb[:len(rows)])
				tally(len(rows))
			})
	} else {
		sampleBatches(t.Members(), rate, PartitionSeed(s.Seed, t.ID()), func(rows []int32) {
			xIdx.IndexRows(rows, xb[:len(rows)])
			yIdx.IndexRows(rows, yb[:len(rows)])
			tally(len(rows))
		})
	}
	h := &Histogram2D{
		X:           s.X,
		Y:           s.Y,
		Counts:      cells[: nx*ny : nx*ny],
		YOther:      make([]int64, nx),
		SampleRate:  rate,
		SampledRows: n,
	}
	for _, c := range cells[:2*w] {
		h.XMissing += c
	}
	// Row xi of Counts lands below the slot row it is read from, and
	// after every row read before it, so one forward pass is safe.
	for xi := range nx {
		row := cells[(xi+2)*w : (xi+3)*w]
		h.YOther[xi] = row[0] + row[1]
		copy(h.Counts[xi*ny:(xi+1)*ny], row[2:])
	}
	return h, nil
}

// Merge implements Sketch.
func (s *Histogram2DSketch) Merge(a, b Result) (Result, error) {
	ha, ok1 := a.(*Histogram2D)
	hb, ok2 := b.(*Histogram2D)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: hist2d merge got %T and %T", a, b)
	}
	if len(ha.Counts) != len(hb.Counts) || len(ha.YOther) != len(hb.YOther) {
		return nil, fmt.Errorf("sketch: hist2d merge geometry mismatch")
	}
	out := &Histogram2D{
		X:           ha.X,
		Y:           ha.Y,
		Counts:      make([]int64, len(ha.Counts)),
		YOther:      make([]int64, len(ha.YOther)),
		XMissing:    ha.XMissing + hb.XMissing,
		SampleRate:  ha.SampleRate,
		SampledRows: ha.SampledRows + hb.SampledRows,
	}
	for i := range out.Counts {
		out.Counts[i] = ha.Counts[i] + hb.Counts[i]
	}
	for i := range out.YOther {
		out.YOther[i] = ha.YOther[i] + hb.YOther[i]
	}
	return out, nil
}

// NewStackedHistogramSketch builds the vizketch for a stacked histogram:
// Bx bars subdivided into at most ~20 color bins for Y (paper App. B.1:
// "the human eye cannot distinguish many colors reliably, so By is
// limited to ≈20"), sampled at rate.
func NewStackedHistogramSketch(xcol, ycol string, x, y BucketSpec, rate float64, seed uint64) *Histogram2DSketch {
	return &Histogram2DSketch{XCol: xcol, YCol: ycol, X: x, Y: y, Rate: rate, Seed: seed}
}

// NewNormalizedStackedSketch builds the vizketch for a normalized stacked
// histogram, which must scan all rows (paper App. B.1).
func NewNormalizedStackedSketch(xcol, ycol string, x, y BucketSpec) *Histogram2DSketch {
	return &Histogram2DSketch{XCol: xcol, YCol: ycol, X: x, Y: y, Rate: 1}
}

// NewHeatmapSketch builds the vizketch for a heat map with Bx = W/b and
// By = V/b bins for b-pixel cells (paper §4.3); sampling is valid only
// for linear color scales, so callers pass rate 1 for log scales.
func NewHeatmapSketch(xcol, ycol string, x, y BucketSpec, rate float64, seed uint64) *Histogram2DSketch {
	return &Histogram2DSketch{XCol: xcol, YCol: ycol, X: x, Y: y, Rate: rate, Seed: seed}
}
