package sketch

import (
	"fmt"

	"repro/internal/table"
)

// Trellis is the summary behind a trellis plot: an array of 2-D
// histograms, one per group bucket of a third column W (paper App. B.1).
// Because the rendering area is fixed, more groups mean smaller plots,
// so the total summary size stays bounded by the display.
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
// (paper App. B.1: "the vizketch computes all heat maps in parallel").
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

// Summarize implements Sketch.
func (s *TrellisSketch) Summarize(t *table.Table) (Result, error) {
	gcol, err := t.Column(s.GroupCol)
	if err != nil {
		return nil, err
	}
	xcol, err := t.Column(s.XCol)
	if err != nil {
		return nil, err
	}
	ycol, err := t.Column(s.YCol)
	if err != nil {
		return nil, err
	}
	gIdx, err := s.Group.Indexer(gcol)
	if err != nil {
		return nil, err
	}
	xIdx, err := s.X.Indexer(xcol)
	if err != nil {
		return nil, err
	}
	yIdx, err := s.Y.Indexer(ycol)
	if err != nil {
		return nil, err
	}
	tr := s.Zero().(*Trellis)
	visit := func(row int) bool {
		tr.SampledRows++
		gb := gIdx(row)
		if gb < 0 {
			tr.GroupOther++
			return true
		}
		p := tr.Plots[gb]
		p.SampledRows++
		xb := xIdx(row)
		if xb < 0 {
			p.XMissing++
			return true
		}
		if yb := yIdx(row); yb >= 0 {
			p.Counts[xb*p.Y.Count+yb]++
		} else {
			p.YOther[xb]++
		}
		return true
	}
	if tr.SampleRate >= 1 {
		t.Members().Iterate(visit)
	} else {
		t.Members().Sample(tr.SampleRate, PartitionSeed(s.Seed, t.ID()), visit)
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
