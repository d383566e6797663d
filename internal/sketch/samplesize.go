package sketch

import "math"

// Sample-size formulas from the paper (§4.3 and Appendix C). Each
// returns the target number of samples for a desired rendering accuracy;
// the planner converts a target size n into a per-row rate n/N, where N
// is the row count obtained in the preparation phase. The sizes depend
// only on the display geometry and δ — never on the dataset size — which
// is what makes sampled vizketches scale super-linearly (paper §7.2.2).
//
// The theoretical bounds carry large constants; the paper notes (App. C)
// that "in practice, we have found that using CV² samples for constant C
// works well". We use that practical calibration with C chosen so the
// empirical 1-pixel error bound holds in the accuracy tests.
//
// The planner does not always sample: the histogram and CDF sites take
// their rate from HistogramRate, which scans every row from
// HistogramExactAboveRate up.

// sampleC is the practical constant C in the CV² calibration.
const sampleC = 4.0

// HistogramSampleSize returns the target sample count for a histogram
// with B buckets, bar height V pixels, and failure probability delta
// (paper: n = O(V²B²·log(1/δ)) worst case; practical C·V²·log(1/δ)
// with a B-dependent floor so narrow, spiky histograms stay accurate).
func HistogramSampleSize(b, v int, delta float64) int {
	n := sampleC * float64(v*v) * logInvDelta(delta)
	if floor := 100.0 * float64(b) * logInvDelta(delta); n < floor {
		n = floor
	}
	return int(math.Ceil(n))
}

// CDFSampleSize returns the target sample count for a CDF plot with V
// vertical pixels (paper App. C: n = O(V²·log(1/δ))).
func CDFSampleSize(v int, delta float64) int {
	return int(math.Ceil(sampleC * float64(v*v) * logInvDelta(delta)))
}

// HeatmapSampleSize returns the target sample count for a heat map with
// bx × by bins and c discernible colors (paper §4.3:
// n = O(c²·Bx²·By²·log(1/δ)) worst case; the practical bound scales with
// the bin count and color resolution).
func HeatmapSampleSize(bx, by, c int, delta float64) int {
	n := sampleC * float64(c*c) * float64(bx*by) * logInvDelta(delta)
	return int(math.Ceil(n))
}

// QuantileSampleSize returns the sample count for scroll-bar quantile
// estimation with V pixels (paper App. C Thm 2 with ε = 1/(2V):
// n = O(V²·log(1/δ)); "in practice … sample complexity O(V²) for
// constant probability of success"). Unlike counting sketches, every
// sampled item is a whole row, so the practical constant is kept small —
// the summary must stay display-sized (§4.2).
func QuantileSampleSize(v int, delta float64) int {
	return int(math.Ceil(float64(v*v) * logInvDelta(delta) / 4))
}

// HeavyHittersSampleSize returns the sample count for the sampling
// heavy-hitters vizketch with threshold 1/K (paper §4.3 and Thm 4:
// n = K²·log(K/δ)).
func HeavyHittersSampleSize(k int, delta float64) int {
	if k < 1 {
		k = 1
	}
	// Squared in floating point and clamped, since k comes off a URL.
	n := math.Ceil(float64(k) * float64(k) * math.Log(float64(k)/delta))
	if n >= math.MaxInt {
		return math.MaxInt
	}
	return int(n)
}

// Rate converts a target sample size into a per-row sampling rate for a
// dataset of n rows, clamped to [0, 1].
func Rate(target, n int) float64 {
	if n <= 0 || target >= n {
		return 1
	}
	return float64(target) / float64(n)
}

// sampleRate is how every sampling sketch reads its Rate field: a rate
// in (0, 1) samples each member row with that probability, and any other
// value — 0, negative, 1 or more, NaN off a crafted frame — scans every
// row. It is also the SampleRate the sketch's result reports.
func sampleRate(rate float64) float64 {
	if rate > 0 && rate < 1 {
		return rate
	}
	return 1
}

// HistogramExactAboveRate is the sampling rate at and above which the
// sampled 1-D histogram kernel stops being cheaper than the exact one.
// The sample sizes above are display-derived, so on a table not much
// larger than the target the rate is a large fraction of 1, and a sample
// (a log draw, a closure call, a gather) costs several streamed rows.
// BenchmarkKernelHistCrossover (bench_test.go) runs the two kernels
// interleaved at rates 1/64 … 1 over 1M rows and reports where they
// cross; the constant sits just above the largest crossing it printed for
// an int column, a double column with missing values, a dictionary column
// and an int column behind a bitmap membership. It is a property of those
// two kernels, not a tuning knob — re-read it when either changes — and
// says nothing about the 2-D, trellis or sample-heavy-hitters
// kernels, whose every-row paths cost more: their sites keep Rate.
const HistogramExactAboveRate = 0.2

// HistogramRate is Rate for HistogramSketch, bars and CDF alike: the
// same target/n below HistogramExactAboveRate, 1 — the exact kernel —
// from there up.
func HistogramRate(target, n int) float64 {
	if r := Rate(target, n); r < HistogramExactAboveRate {
		return r
	}
	return 1
}

func logInvDelta(delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		delta = 0.01
	}
	return math.Log(1 / delta)
}
