package render

import (
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/table"
)

func testHistogram() *sketch.Histogram {
	return &sketch.Histogram{
		Buckets:    sketch.NumericBuckets(table.KindDouble, 0, 100, 5),
		Counts:     []int64{10, 40, 25, 5, 20},
		Missing:    3,
		SampleRate: 1,
	}
}

func testHist2D() *sketch.Histogram2D {
	h := &sketch.Histogram2D{
		X:          sketch.NumericBuckets(table.KindDouble, 0, 10, 4),
		Y:          sketch.StringBucketsFromBounds([]string{"a", "b", "c"}, true),
		Counts:     make([]int64, 12),
		YOther:     make([]int64, 4),
		SampleRate: 1,
	}
	for i := range h.Counts {
		h.Counts[i] = int64(i * 3 % 7)
	}
	h.YOther[2] = 4
	return h
}

func TestShadeOf(t *testing.T) {
	if ShadeOf(0, 100) != 0 {
		t.Error("zero count should be shade 0")
	}
	if ShadeOf(100, 100) != Shades {
		t.Error("max count should be top shade")
	}
	if ShadeOf(1, 100) != 1 {
		t.Error("tiny count should be the first visible shade")
	}
	if ShadeOf(5, 0) != 0 {
		t.Error("zero max should be shade 0")
	}
	// Monotone.
	prev := 0
	for c := int64(0); c <= 100; c += 5 {
		s := ShadeOf(c, 100)
		if s < prev {
			t.Fatalf("shade not monotone at %d", c)
		}
		prev = s
	}
}

func TestBarHeights(t *testing.T) {
	h := testHistogram()
	heights := BarHeights(h, 100)
	if heights[1] != 100 {
		t.Errorf("tallest bar = %d, want 100", heights[1])
	}
	if heights[0] != 25 || heights[3] != 13 {
		t.Errorf("heights = %v", heights)
	}
	empty := &sketch.Histogram{Counts: []int64{0, 0}}
	if got := BarHeights(empty, 10); got[0] != 0 || got[1] != 0 {
		t.Error("empty histogram should render flat")
	}
}

func TestHistogramSVG(t *testing.T) {
	h := testHistogram()
	svg := HistogramSVG(h, nil, 300, 120)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>\n") {
		t.Fatal("not an SVG document")
	}
	if strings.Count(svg, "<rect") != 5 {
		t.Errorf("rects = %d, want 5", strings.Count(svg, "<rect"))
	}
	// With CDF overlay.
	svg = HistogramSVG(h, h, 300, 120)
	if !strings.Contains(svg, "<polyline") {
		t.Error("missing CDF polyline")
	}
}

func TestHistogramASCII(t *testing.T) {
	h := testHistogram()
	out := HistogramASCII(h, 50, 10)
	if !strings.Contains(out, "#") {
		t.Error("no bars drawn")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 11 {
		t.Errorf("lines = %d", len(lines))
	}
	if HistogramASCII(&sketch.Histogram{}, 10, 5) != "(empty)\n" {
		t.Error("empty histogram rendering")
	}
}

func TestHeatmapAndCDFASCII(t *testing.T) {
	out := HeatmapASCII(testHist2D())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("heatmap lines = %d, want Y bins", len(lines))
	}
	for _, l := range lines {
		if len(l) != 4 {
			t.Errorf("heatmap width = %d, want X bins", len(l))
		}
	}
}

func TestTableASCII(t *testing.T) {
	l := &sketch.NextKList{
		Rows: []table.Row{
			{table.StringValue("SFO"), table.IntValue(10)},
			{table.StringValue("JFK"), table.MissingValue(table.KindInt)},
		},
		Counts: []int64{3, 1},
		Before: 5,
		Total:  100,
	}
	out := TableASCII(l, []string{"Origin", "Delay"})
	if !strings.Contains(out, "SFO") || !strings.Contains(out, "JFK") {
		t.Error("values missing")
	}
	if !strings.Contains(out, "∅") {
		t.Error("missing marker absent")
	}
	if !strings.Contains(out, "position 5 of 100") {
		t.Error("position line wrong")
	}
}

func TestHeavyHittersAndMomentsASCII(t *testing.T) {
	items := []sketch.HHItem{
		{Value: table.StringValue("WN"), Count: 500},
		{Value: table.StringValue("AA"), Count: 250},
	}
	out := HeavyHittersASCII(items, 1000)
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "25.0%") {
		t.Errorf("shares wrong:\n%s", out)
	}
	m := &sketch.Moments{Count: 10, Min: 1, Max: 9, Sums: []float64{50, 290}}
	ms := MomentsASCII("x", m)
	if !strings.Contains(ms, "mean=5.000") {
		t.Errorf("moments: %s", ms)
	}
}
