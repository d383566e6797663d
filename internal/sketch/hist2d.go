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

// cellMatrices recycles the (Bx+2)·(By+2) slot matrices a 2-D scan
// tallies into. A summary's Counts keeps its matrix as capacity, and
// MergeInto returns the matrix of the summary it consumes, so a fold
// allocates matrices for the summaries alive at once, not one per
// partition. A matrix of another geometry is dropped, not resized.
var cellMatrices sync.Pool

// newCells returns a zeroed slot matrix of n cells.
func newCells(n int) []int64 {
	if p, ok := cellMatrices.Get().(*[]int64); ok && len(*p) == n {
		clear(*p)
		return *p
	}
	return make([]int64, n)
}

// Summarize implements Sketch: gridScan tallies the rows into a flat
// (Bx+2)·(By+2) slot matrix, which compact2D turns into the result in
// place.
func (s *Histogram2DSketch) Summarize(t *table.Table) (Result, error) {
	xIdx, err := batchIndexer(t, s.XCol, s.X)
	if err != nil {
		return nil, err
	}
	yIdx, err := batchIndexer(t, s.YCol, s.Y)
	if err != nil {
		return nil, err
	}
	wx, wy := s.X.NumBuckets()+2, s.Y.NumBuckets()+2
	cells := newCells(wx * wy)
	rate := sampleRate(s.Rate)
	h := &Histogram2D{X: s.X, Y: s.Y, SampleRate: rate}
	h.SampledRows = gridScan(t.Members(), rate, PartitionSeed(s.Seed, t.ID()), nil, xIdx, yIdx, wx, wy, cells)
	compact2D(h, cells)
	return h, nil
}

// gridScan is the 2-D scan of the heat map and the trellis, and returns
// the number of rows it scanned. Each axis maps its rows to tally slots
// (BatchIndexer) over the same row batches — the Sample(rate, seed)
// rows at a rate below 1, else every member row — and every row adds
// one to cell (x slot, y slot) of a flat matrix of wy Y slots per X
// slot, with no branch on missing or out-of-range values. A group axis
// g offsets each row's x slot by its group slot × wx, so every group
// slot tallies into a wx·wy block of its own; with a nil g, cells is
// one block.
func gridScan(m table.Membership, rate float64, seed uint64, g, x, y BatchIndexer, wx, wy int, cells []int64) (n int64) {
	xbuf, ybuf := getRowBuffer(), getRowBuffer()
	defer rowBuffers.Put(xbuf)
	defer rowBuffers.Put(ybuf)
	xb, yb := xbuf[:], ybuf[:]
	var gb []int32
	if g != nil {
		gbuf := getRowBuffer()
		defer rowBuffers.Put(gbuf)
		gb = gbuf[:]
	}
	block, stride := int32(wx), int32(wy)
	// tally adds k rows to cells from their slots in the buffers, after
	// indexing them there when they are gathered rows (rows not nil).
	tally := func(k int, rows []int32) {
		if rows != nil {
			if g != nil {
				g.IndexRows(rows, gb[:k])
			}
			x.IndexRows(rows, xb[:k])
			y.IndexRows(rows, yb[:k])
		}
		n += int64(k)
		xs := xb[:k]
		if g != nil {
			for i, gs := range gb[:len(xs)] {
				xs[i] += gs * block
			}
		}
		ys := yb[:len(xs)]
		for i, xslot := range xs {
			cells[xslot*stride+ys[i]]++
		}
	}
	// Each branch has its own rows literal: one shared with the sample
	// branch escapes, and would cost the exact scan an allocation.
	if rate < 1 {
		sampleBatches(m, rate, seed, func(rows []int32) { tally(len(rows), rows) })
		return n
	}
	scanBatches(m,
		func(a, b int) {
			if g != nil {
				g.IndexSpan(a, b, gb[:b-a])
			}
			x.IndexSpan(a, b, xb[:b-a])
			y.IndexSpan(a, b, yb[:b-a])
			tally(b-a, nil)
		},
		func(rows []int32) { tally(len(rows), rows) })
	return n
}

// compact2D turns one block of gridScan's slot matrix into h's counts,
// in place: slot rows 0 and 1 of X sum into XMissing, slot columns 0
// and 1 of Y into YOther, and the rest is Counts. Row xi of Counts
// lands below the slot row it is read from, and after every row read
// before it, so one forward pass is safe. The rest of the block stays
// Counts' capacity, for MergeInto to recycle.
func compact2D(h *Histogram2D, block []int64) {
	nx, ny := h.X.NumBuckets(), h.Y.NumBuckets()
	w := ny + 2
	for _, c := range block[:2*w] {
		h.XMissing += c
	}
	h.Counts = block[:nx*ny]
	h.YOther = make([]int64, nx)
	for xi := range nx {
		row := block[(xi+2)*w : (xi+3)*w]
		h.YOther[xi] = row[0] + row[1]
		copy(h.Counts[xi*ny:(xi+1)*ny], row[2:])
	}
}

// Merge implements Sketch.
func (s *Histogram2DSketch) Merge(a, b Result) (Result, error) {
	ha, hb, err := hist2dOperands(a, b)
	if err != nil {
		return nil, err
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

// MergeInto implements InPlaceMerger: it adds src's counts into dst's
// and recycles src's slot matrix. Integer addition gives the same sums
// in place as into a fresh matrix, so the result equals Merge(dst, src).
func (s *Histogram2DSketch) MergeInto(dst, src Result) (Result, error) {
	hd, hs, err := hist2dOperands(dst, src)
	if err != nil {
		return nil, err
	}
	hd.XMissing += hs.XMissing
	hd.SampledRows += hs.SampledRows
	for i, c := range hs.Counts {
		hd.Counts[i] += c
	}
	for i, c := range hs.YOther {
		hd.YOther[i] += c
	}
	cells := hs.Counts[:cap(hs.Counts)]
	cellMatrices.Put(&cells)
	return hd, nil
}

func hist2dOperands(a, b Result) (*Histogram2D, *Histogram2D, error) {
	ha, ok1 := a.(*Histogram2D)
	hb, ok2 := b.(*Histogram2D)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("sketch: hist2d merge got %T and %T", a, b)
	}
	if len(ha.Counts) != len(hb.Counts) || len(ha.YOther) != len(hb.YOther) {
		return nil, nil, fmt.Errorf("sketch: hist2d merge geometry mismatch")
	}
	return ha, hb, nil
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
