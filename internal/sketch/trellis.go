package sketch

import (
	"fmt"

	"repro/internal/table"
)

// Trellis is the summary behind a trellis plot: an array of 2-D
// histograms, one per group bucket of a third column W (paper App. B.1).
// Because the rendering area is fixed, more groups mean smaller plots,
// so the total summary size stays bounded by the display. Every plot is
// what a Histogram2DSketch over the group's rows would give, at the
// trellis's rate.
type Trellis struct {
	Group BucketSpec
	// Plots has Group.Count entries, each a Histogram2D with the same
	// X/Y geometry.
	Plots       []*Histogram2D
	GroupOther  int64 // rows whose W is missing or out of range
	SampleRate  float64
	SampledRows int64
}

// TrellisSketch computes all the plots of a trellis in a single pass
// (paper App. B.1: "the vizketch computes all heat maps in parallel"):
// it is a heat map with a group axis, run by the heat map's own batch
// scan (gridScan). A Rate outside (0, 1) scans every member row
// (sampleRate).
type TrellisSketch struct {
	GroupCol   string
	XCol, YCol string
	Group      BucketSpec
	X, Y       BucketSpec
	Rate       float64
	Seed       uint64
}

// Name implements Sketch.
func (s *TrellisSketch) Name() string {
	return fmt.Sprintf("trellis(%s,%s,%s,%s,%s,%s,r=%g,seed=%d)",
		s.GroupCol, s.XCol, s.YCol, s.Group, s.X, s.Y, s.Rate, s.Seed)
}

// Zero implements Sketch.
func (s *TrellisSketch) Zero() Result {
	rate := sampleRate(s.Rate)
	plots := make([]*Histogram2D, s.Group.NumBuckets())
	for i := range plots {
		plots[i] = &Histogram2D{
			X:          s.X,
			Y:          s.Y,
			Counts:     make([]int64, s.X.NumBuckets()*s.Y.NumBuckets()),
			YOther:     make([]int64, s.X.NumBuckets()),
			SampleRate: rate,
		}
	}
	return &Trellis{Group: s.Group, Plots: plots, SampleRate: rate}
}

// Summarize implements Sketch with the heat map's scan (gridScan) plus
// a group axis: every group slot tallies into a (Bx+2)·(By+2) block of
// one slot matrix, the two blocks of missing and out-of-range groups
// sum into GroupOther, and compact2D turns each group's block into its
// plot. Each block is capped at its end, so no plot's Counts can reach
// into the next plot's cells.
func (s *TrellisSketch) Summarize(t *table.Table) (Result, error) {
	gIdx, err := batchIndexer(t, s.GroupCol, s.Group)
	if err != nil {
		return nil, err
	}
	xIdx, err := batchIndexer(t, s.XCol, s.X)
	if err != nil {
		return nil, err
	}
	yIdx, err := batchIndexer(t, s.YCol, s.Y)
	if err != nil {
		return nil, err
	}
	wx, wy := s.X.NumBuckets()+2, s.Y.NumBuckets()+2
	block := wx * wy
	cells := make([]int64, (s.Group.NumBuckets()+2)*block)
	rate := sampleRate(s.Rate)
	tr := &Trellis{Group: s.Group, Plots: make([]*Histogram2D, s.Group.NumBuckets()), SampleRate: rate}
	tr.SampledRows = gridScan(t.Members(), rate, PartitionSeed(s.Seed, t.ID()), gIdx, xIdx, yIdx, wx, wy, cells)
	for _, c := range cells[:2*block] {
		tr.GroupOther += c
	}
	for i := range tr.Plots {
		lo, hi := (i+2)*block, (i+3)*block
		p := &Histogram2D{X: s.X, Y: s.Y, SampleRate: rate}
		compact2D(p, cells[lo:hi:hi])
		p.SampledRows = p.XMissing
		for xi := range p.YOther {
			p.SampledRows += p.XTotal(xi)
		}
		tr.Plots[i] = p
	}
	return tr, nil
}

// Merge implements Sketch.
func (s *TrellisSketch) Merge(a, b Result) (Result, error) {
	ta, ok1 := a.(*Trellis)
	tb, ok2 := b.(*Trellis)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: trellis merge got %T and %T", a, b)
	}
	if len(ta.Plots) != len(tb.Plots) {
		return nil, fmt.Errorf("sketch: trellis merge with %d vs %d groups", len(ta.Plots), len(tb.Plots))
	}
	out := &Trellis{
		Group:       ta.Group,
		Plots:       make([]*Histogram2D, len(ta.Plots)),
		GroupOther:  ta.GroupOther + tb.GroupOther,
		SampleRate:  ta.SampleRate,
		SampledRows: ta.SampledRows + tb.SampledRows,
	}
	inner := &Histogram2DSketch{X: s.X, Y: s.Y}
	for i := range out.Plots {
		m, err := inner.Merge(ta.Plots[i], tb.Plots[i])
		if err != nil {
			return nil, err
		}
		out.Plots[i] = m.(*Histogram2D)
	}
	return out, nil
}
