package sketch

import (
	"math"
	"testing"

	"repro/internal/table"
)

func TestBucketSpecNumeric(t *testing.T) {
	b := NumericBuckets(table.KindDouble, 0, 100, 10)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {9.999, 0}, {10, 1}, {55, 5}, {99.99, 9},
		{100, 9}, // max lands in last bucket
		{-0.1, -1}, {100.1, -1},
	}
	for _, c := range cases {
		if got := b.IndexValue(c.v); got != c.want {
			t.Errorf("IndexValue(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Degenerate range: single value.
	one := NumericBuckets(table.KindDouble, 5, 5, 3)
	if got := one.IndexValue(5); got != 0 {
		t.Errorf("degenerate IndexValue(5) = %d, want 0", got)
	}
}

func TestBucketSpecString(t *testing.T) {
	b := StringBucketsFromBounds([]string{"d", "k", "r"}, false)
	cases := []struct {
		v    string
		want int
	}{
		{"d", 0}, {"e", 0}, {"j", 0}, {"k", 1}, {"q", 1}, {"r", 2}, {"zzz", 2},
		{"a", -1}, {"c", -1},
	}
	for _, c := range cases {
		if got := b.IndexString(c.v); got != c.want {
			t.Errorf("IndexString(%q) = %d, want %d", c.v, got, c.want)
		}
	}
	exact := StringBucketsFromBounds([]string{"a", "b", "c"}, true)
	if got := exact.IndexString("b"); got != 1 {
		t.Errorf("exact IndexString(b) = %d, want 1", got)
	}
	if got := exact.IndexString("bb"); got != -1 {
		t.Errorf("exact IndexString(bb) = %d, want -1 (not a member)", got)
	}
}

func TestStringBucketsFromDistinct(t *testing.T) {
	few := []string{"a", "b", "c"}
	b := StringBucketsFromDistinct(few, 50)
	if !b.ExactValues || b.Count != 3 {
		t.Errorf("few distinct: got %+v", b)
	}
	many := make([]string, 200)
	for i := range many {
		many[i] = string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	b = StringBucketsFromDistinct(many, 50)
	if b.ExactValues || b.Count > 50 || b.Count < 40 {
		t.Errorf("many distinct: got %d buckets exact=%t", b.Count, b.ExactValues)
	}
}

func TestHistogramSketchExact(t *testing.T) {
	tbl := genTable("h1", 10000, 1)
	sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 20)}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*Histogram)
	// Reference count.
	col := tbl.MustColumn("x")
	wantCounts := make([]int64, 20)
	var wantMissing int64
	tbl.Members().Iterate(func(i int) bool {
		if col.Value(i).Missing {
			wantMissing++
		} else {
			wantCounts[sk.Buckets.IndexValue(col.Value(i).Double())]++
		}
		return true
	})
	for i := range wantCounts {
		if h.Counts[i] != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d", i, h.Counts[i], wantCounts[i])
		}
	}
	if h.Missing != wantMissing {
		t.Errorf("missing = %d, want %d", h.Missing, wantMissing)
	}
	if h.TotalCount()+h.Missing != int64(tbl.NumRows()) {
		t.Errorf("counts don't add up: %d + %d != %d", h.TotalCount(), h.Missing, tbl.NumRows())
	}
}

func TestHistogramExactMergeability(t *testing.T) {
	tbl := genTable("h2", 5000, 2)
	sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 13)}
	checkExactMergeability(t, sk, tbl, 7)
}

func TestHistogramMergeInvariance(t *testing.T) {
	tbl := genTable("h3", 3000, 3)
	sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 10), Rate: 0.3, Seed: 11}
	parts := summarizeParts(t, sk, splitTable(tbl, 5))
	checkMergeInvariance(t, sk, parts)
}

func TestSampledHistogramDeterminism(t *testing.T) {
	tbl := genTable("h4", 20000, 4)
	sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 10), Rate: 0.1, Seed: 5}
	a, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sk.Summarize(tbl)
	ha, hb := a.(*Histogram), b.(*Histogram)
	for i := range ha.Counts {
		if ha.Counts[i] != hb.Counts[i] {
			t.Fatalf("replay diverged at bucket %d: %d vs %d", i, ha.Counts[i], hb.Counts[i])
		}
	}
	// A different seed must give a different sample (overwhelmingly).
	sk2 := &HistogramSketch{Col: "x", Buckets: sk.Buckets, Rate: 0.1, Seed: 6}
	c, _ := sk2.Summarize(tbl)
	hc := c.(*Histogram)
	same := true
	for i := range ha.Counts {
		if ha.Counts[i] != hc.Counts[i] {
			same = false
		}
	}
	if same && ha.SampledRows == hc.SampledRows {
		t.Error("different seeds produced identical samples")
	}
}

// TestHistogramOnePixelAccuracy is the paper's headline accuracy claim
// (Fig 3, Thm 3): with the prescribed sample size, every rendered bar is
// within one pixel of the exact bar with high probability.
func TestHistogramOnePixelAccuracy(t *testing.T) {
	const (
		rows    = 200000
		buckets = 25
		vPixels = 100
		delta   = 0.01
	)
	tbl := genTable("acc", rows, 9)
	spec := NumericBuckets(table.KindDouble, 0, 100, buckets)

	exact, err := (&HistogramSketch{Col: "x", Buckets: spec}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	he := exact.(*Histogram)
	exactTotal := float64(he.TotalCount())
	exactMax := float64(he.MaxCount())

	n := HistogramSampleSize(buckets, vPixels, delta)
	rate := Rate(n, rows)
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		sk := &HistogramSketch{Col: "x", Buckets: spec, Rate: rate, Seed: uint64(trial)}
		res, err := sk.Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		hs := res.(*Histogram)
		total := float64(hs.TotalCount())
		if total == 0 {
			failures++
			continue
		}
		// Render both to pixel heights scaled by the exact max bar.
		worst := 0.0
		for i := range hs.Counts {
			exactPix := float64(he.Counts[i]) / exactMax * vPixels
			estPix := (float64(hs.Counts[i]) / total * exactTotal) / exactMax * vPixels
			if d := math.Abs(exactPix - estPix); d > worst {
				worst = d
			}
		}
		if worst > 1.0 {
			failures++
		}
	}
	if failures > 2 { // allow ~δ failures with slack
		t.Errorf("1-pixel bound violated in %d/%d trials", failures, trials)
	}
}

func TestHistogramStringColumn(t *testing.T) {
	tbl := genTable("hs", 5000, 10)
	spec := StringBucketsFromDistinct([]string{"alpha", "beta", "delta", "epsilon", "eta", "gamma", "theta", "zeta"}, 50)
	sk := &HistogramSketch{Col: "cat", Buckets: spec}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*Histogram)
	if h.TotalCount() != int64(tbl.NumRows()) {
		t.Errorf("string histogram lost rows: %d of %d", h.TotalCount(), tbl.NumRows())
	}
	// alpha is the most likely category by construction.
	alphaIdx := spec.IndexString("alpha")
	if h.Counts[alphaIdx] != h.MaxCount() {
		t.Errorf("alpha should dominate; counts=%v", h.Counts)
	}
}

func TestCDFSketch(t *testing.T) {
	tbl := genTable("cdf", 50000, 12)
	spec := NumericBuckets(table.KindDouble, 0, 100, 200) // 200 horizontal pixels
	sk := &HistogramSketch{Col: "x", Buckets: spec, Rate: Rate(CDFSampleSize(100, 0.01), 50000), Seed: 3}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*Histogram)
	cdf := h.CDF()
	if len(cdf) != 200 {
		t.Fatalf("cdf length %d", len(cdf))
	}
	// Monotone, ends at 1.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("cdf not monotone at %d", i)
		}
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Errorf("cdf end = %v, want 1", cdf[len(cdf)-1])
	}
	// Uniform data: cdf at midpoint ~ 0.5 (±0.05).
	if mid := cdf[99]; math.Abs(mid-0.5) > 0.05 {
		t.Errorf("cdf midpoint = %v, want ≈0.5", mid)
	}
	// Exact mode (Rate 0).
	ex := &HistogramSketch{Col: "x", Buckets: spec}
	res2, err := ex.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res2.(*Histogram).SampleRate != 1 {
		t.Error("exact CDF should have rate 1")
	}
}

// TestCDFHalfPixelAccuracy checks the paper's CDF guarantee (App. B.1):
// each rendered CDF pixel is within ~0.6/V of the true value.
func TestCDFHalfPixelAccuracy(t *testing.T) {
	const rows = 100000
	const vPix = 100
	tbl := genTable("cdfacc", rows, 13)
	spec := NumericBuckets(table.KindDouble, 0, 100, 100)
	exact, err := (&HistogramSketch{Col: "x", Buckets: spec}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	exactCDF := exact.(*Histogram).CDF()

	rate := Rate(CDFSampleSize(vPix, 0.01), rows)
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		sk := &HistogramSketch{Col: "x", Buckets: spec, Rate: rate, Seed: uint64(100 + trial)}
		res, err := sk.Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		got := res.(*Histogram).CDF()
		worst := 0.0
		for i := range got {
			if d := math.Abs(got[i] - exactCDF[i]); d > worst {
				worst = d
			}
		}
		if worst > 0.6/vPix*2 { // 0.6 pixels, with 2x slack for the constant
			failures++
		}
	}
	if failures > 2 {
		t.Errorf("CDF accuracy violated in %d/%d trials", failures, trials)
	}
}

func TestHistogramMergeErrors(t *testing.T) {
	sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 1, 4)}
	other := &Histogram{Counts: make([]int64, 9)}
	if _, err := sk.Merge(sk.Zero(), other); err == nil {
		t.Error("bucket-count mismatch should error")
	}
	if _, err := sk.Merge(sk.Zero(), &DataRange{}); err == nil {
		t.Error("type mismatch should error")
	}
}

func TestSuperLinearSampling(t *testing.T) {
	// The core scalability property (paper §7.2.2): the target sample
	// size is independent of data size, so the rate — and per-leaf work —
	// drops as data grows.
	n := HistogramSampleSize(25, 100, 0.01)
	small := Rate(n, 1000000)
	big := Rate(n, 10000000)
	if big >= small {
		t.Errorf("rate should fall with data size: %g vs %g", small, big)
	}
	if r := Rate(n, n/2); r != 1 {
		t.Errorf("rate should clamp to 1, got %g", r)
	}
}

func TestSampleSizeFormulas(t *testing.T) {
	if HistogramSampleSize(50, 100, 0.01) <= 0 ||
		CDFSampleSize(100, 0.01) <= 0 ||
		HeatmapSampleSize(60, 30, 20, 0.01) <= 0 ||
		QuantileSampleSize(100, 0.01) <= 0 ||
		HeavyHittersSampleSize(20, 0.01) <= 0 {
		t.Error("sample sizes must be positive")
	}
	// Heavy hitters: n = K² log(K/δ).
	if got, want := HeavyHittersSampleSize(10, 0.01), int(math.Ceil(100*math.Log(1000))); got != want {
		t.Errorf("HeavyHittersSampleSize = %d, want %d", got, want)
	}
	// Degenerate deltas fall back to 0.01 rather than panicking.
	if CDFSampleSize(10, 0) <= 0 || CDFSampleSize(10, 5) <= 0 {
		t.Error("degenerate delta handling broken")
	}
}

func TestPartitionSeedStability(t *testing.T) {
	a := PartitionSeed(1, "tbl-0")
	if a != PartitionSeed(1, "tbl-0") {
		t.Error("partition seed not stable")
	}
	if a == PartitionSeed(1, "tbl-1") || a == PartitionSeed(2, "tbl-0") {
		t.Error("partition seed collisions across seeds/partitions")
	}
}

func TestBucketLabels(t *testing.T) {
	nb := NumericBuckets(table.KindDouble, 0, 10, 2)
	if nb.LabelOf(0) == "" || nb.LabelOf(1) == "" {
		t.Error("numeric labels empty")
	}
	sb := StringBucketsFromBounds([]string{"a", "m"}, false)
	if sb.LabelOf(0) != "[a, m)" || sb.LabelOf(1) != "[m, …)" {
		t.Errorf("string labels: %q, %q", sb.LabelOf(0), sb.LabelOf(1))
	}
	ex := StringBucketsFromBounds([]string{"a", "m"}, true)
	if ex.LabelOf(1) != "m" {
		t.Errorf("exact label: %q", ex.LabelOf(1))
	}
	if sb.LabelOf(5) != "" {
		t.Error("out-of-range label should be empty")
	}
}

func BenchmarkHistogramStreaming1M(b *testing.B) {
	tbl := genTable("bench-h", 1000000, 42)
	sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 25)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Summarize(tbl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramSampled1M(b *testing.B) {
	tbl := genTable("bench-hs", 1000000, 42)
	rate := Rate(HistogramSampleSize(25, 100, 0.01), 1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk := &HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 25), Rate: rate, Seed: uint64(i)}
		if _, err := sk.Summarize(tbl); err != nil {
			b.Fatal(err)
		}
	}
}
