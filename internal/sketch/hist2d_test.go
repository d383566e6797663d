package sketch

import (
	"testing"

	"repro/internal/table"
)

func hist2dSpec() (BucketSpec, BucketSpec) {
	x := NumericBuckets(table.KindDouble, 0, 100, 10)
	y := StringBucketsFromDistinct([]string{"alpha", "beta", "delta", "epsilon", "eta", "gamma", "theta", "zeta"}, 20)
	return x, y
}

func TestHistogram2DExact(t *testing.T) {
	tbl := genTable("2d", 8000, 21)
	x, y := hist2dSpec()
	sk := NewNormalizedStackedSketch("x", "cat", x, y)
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*Histogram2D)

	// Reference computation.
	xcol, ycol := tbl.MustColumn("x"), tbl.MustColumn("cat")
	wantCounts := make([]int64, x.Count*y.Count)
	wantYOther := make([]int64, x.Count)
	var wantXMissing int64
	tbl.Members().Iterate(func(i int) bool {
		if xcol.Value(i).Missing {
			wantXMissing++
			return true
		}
		xb := x.IndexValue(xcol.Value(i).Double())
		yb := y.IndexString(ycol.Value(i).String())
		if yb >= 0 {
			wantCounts[xb*y.Count+yb]++
		} else {
			wantYOther[xb]++
		}
		return true
	})
	for i := range wantCounts {
		if h.Counts[i] != wantCounts[i] {
			t.Fatalf("cell %d = %d, want %d", i, h.Counts[i], wantCounts[i])
		}
	}
	if h.XMissing != wantXMissing {
		t.Errorf("XMissing = %d, want %d", h.XMissing, wantXMissing)
	}
	// Totals account for every row.
	var total int64 = h.XMissing
	for xi := 0; xi < x.Count; xi++ {
		total += h.XTotal(xi)
	}
	if total != int64(tbl.NumRows()) {
		t.Errorf("row conservation: %d != %d", total, tbl.NumRows())
	}
}

func TestHistogram2DExactMergeability(t *testing.T) {
	tbl := genTable("2dm", 4000, 22)
	x, y := hist2dSpec()
	sk := NewNormalizedStackedSketch("x", "cat", x, y)
	checkExactMergeability(t, sk, tbl, 6)
}

func TestHistogram2DSampled(t *testing.T) {
	tbl := genTable("2ds", 50000, 23)
	x, y := hist2dSpec()
	rate := Rate(HeatmapSampleSize(x.Count, y.Count, 20, 0.01), 50000)
	sk := NewHeatmapSketch("x", "cat", x, y, rate, 77)
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*Histogram2D)
	if h.SampleRate >= 1 && rate < 1 {
		t.Fatalf("sampled sketch ran exact: rate=%g", h.SampleRate)
	}
	if h.SampledRows == 0 || h.MaxCell() == 0 {
		t.Error("sampled heat map is empty")
	}
	// Determinism.
	res2, _ := sk.Summarize(tbl)
	h2 := res2.(*Histogram2D)
	for i := range h.Counts {
		if h.Counts[i] != h2.Counts[i] {
			t.Fatal("sampled hist2d not deterministic")
		}
	}
	parts := summarizeParts(t, sk, splitTable(tbl, 4))
	checkMergeInvariance(t, sk, parts)
}

// TestHeatmapColorShadeAccuracy checks the paper's heat map guarantee
// (§4.3/Fig 3): each cell's density is within one color shade of exact
// with high probability, for c≈20 shades on a linear scale.
func TestHeatmapColorShadeAccuracy(t *testing.T) {
	const rows = 100000
	const shades = 20
	tbl := genTable("hmacc", rows, 24)
	x, y := hist2dSpec()

	exactRes, err := NewNormalizedStackedSketch("x", "cat", x, y).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactRes.(*Histogram2D)
	exactMax := float64(exact.MaxCell())

	rate := Rate(HeatmapSampleSize(x.Count, y.Count, shades, 0.01), rows)
	failures := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		sk := NewHeatmapSketch("x", "cat", x, y, rate, uint64(trial))
		res, err := sk.Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		h := res.(*Histogram2D)
		scale := float64(rows) / float64(h.SampledRows) // scale sample to population
		worst := 0.0
		for i := range h.Counts {
			exactShade := float64(exact.Counts[i]) / exactMax * shades
			estShade := float64(h.Counts[i]) * scale / exactMax * shades
			if d := abs(exactShade - estShade); d > worst {
				worst = d
			}
		}
		if worst > 1.0 {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("one-shade bound violated in %d/%d trials", failures, trials)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTrellis(t *testing.T) {
	tbl := genTable("tr", 20000, 25)
	x, y := hist2dSpec()
	group := StringBucketsFromDistinct([]string{"alpha", "beta", "delta", "epsilon", "eta", "gamma", "theta", "zeta"}, 4)
	sk := &TrellisSketch{GroupCol: "cat", XCol: "x", YCol: "cat", Group: group, X: x, Y: y, Rate: 1}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.(*Trellis)
	if len(tr.Plots) != group.Count {
		t.Fatalf("plots = %d, want %d", len(tr.Plots), group.Count)
	}
	// Row conservation across groups.
	var total int64 = tr.GroupOther
	for _, p := range tr.Plots {
		total += p.SampledRows
	}
	if total != int64(tbl.NumRows()) {
		t.Errorf("trellis row conservation: %d != %d", total, tbl.NumRows())
	}
	checkExactMergeability(t, sk, tbl, 5)
}

func TestTrellisSampled(t *testing.T) {
	tbl := genTable("trs", 30000, 26)
	x, y := hist2dSpec()
	group := StringBucketsFromDistinct([]string{"alpha", "beta", "gamma"}, 4)
	sk := &TrellisSketch{GroupCol: "cat", XCol: "x", YCol: "cat", Group: group, X: x, Y: y, Rate: 0.1, Seed: 5}
	parts := summarizeParts(t, sk, splitTable(tbl, 5))
	checkMergeInvariance(t, sk, parts)
}

func TestHist2DMergeErrors(t *testing.T) {
	x, y := hist2dSpec()
	sk := NewHeatmapSketch("x", "cat", x, y, 1, 0)
	if _, err := sk.Merge(sk.Zero(), &Histogram{}); err == nil {
		t.Error("type mismatch should error")
	}
	bad := &Histogram2D{Counts: make([]int64, 3), YOther: make([]int64, 1)}
	if _, err := sk.Merge(sk.Zero(), bad); err == nil {
		t.Error("geometry mismatch should error")
	}
	tsk := &TrellisSketch{Group: StringBucketsFromDistinct([]string{"a"}, 4), X: x, Y: y}
	if _, err := tsk.Merge(tsk.Zero(), &Trellis{}); err == nil {
		t.Error("trellis group mismatch should error")
	}
}

func TestHist2DColumnErrors(t *testing.T) {
	tbl := genTable("err", 100, 27)
	x, y := hist2dSpec()
	if _, err := NewHeatmapSketch("nope", "cat", x, y, 1, 0).Summarize(tbl); err == nil {
		t.Error("missing x column should error")
	}
	if _, err := NewHeatmapSketch("x", "nope", x, y, 1, 0).Summarize(tbl); err == nil {
		t.Error("missing y column should error")
	}
	// Numeric buckets over a string column.
	if _, err := NewHeatmapSketch("cat", "x", x, y, 1, 0).Summarize(tbl); err == nil {
		t.Error("kind mismatch should error")
	}
}
