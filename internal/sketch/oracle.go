package sketch

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/table"
)

// This file is the differential-oracle registry: for every shipped
// sketch type it records how results computed by different execution
// topologies — the reference Summarize + sequential MergeAll fold, the
// parallel accumulator engine, and the distributed cluster path — are
// allowed to relate. The testkit harness (internal/testkit) drives all
// topologies over generated tables and applies these contracts; its
// coverage test fails if a sketch appears in wireSketches without an
// oracle.
//
// The per-sketch contract has two halves:
//
//   - Check compares a topology's result against the reference result
//     and the source partitions (which supply ground truth for
//     approximation sketches). For deterministic sketches this is
//     reflect.DeepEqual: mergeability (paper §4.1) promises the exact
//     same summary from every merge order. Sampling sketches re-seed
//     per partition, so a topology that cuts the rows into other
//     partitions (another micropartition size, say) draws a different
//     (equally valid) sample than the reference; their Check verifies the
//     documented statistical error bound against exact ground truth
//     instead. Misra–Gries is deterministic but merge-order-sensitive
//     within its structural N/(K+1) bound, which Check enforces
//     directly. Both of its leaf rules feed that bound: a small
//     dictionary column is tallied exactly and pruned with Merge's own
//     rule, so a leaf is Merge(exact counts, Zero) whatever the row
//     order; every other column streams and loses at most rows/(K+1)
//     per counter. What still shows in the bits is the merge tree's
//     shape. The floating-point fold sketch (moments) is exact up to
//     addition reassociation and gets a relative-epsilon compare.
//
//   - Peer compares two topologies that share scan geometry (the same
//     partitions under the same IDs — e.g. the local parallel engine vs
//     the cluster path). Per-partition sampling seeds derive only from
//     (query seed, partition table ID), so even randomized sketches
//     must agree bit-for-bit across same-geometry topologies; PeerExact
//     records that. Only Misra–Gries (worker partitioning changes merge
//     order) and the float-fold sketches (reassociation) are exempt and
//     provide a bound-based Peer.
//
// To register a new sketch with the oracle: add the prototype to
// wireSketches, call RegisterOracle in init below with Exact/Check/Peer
// matching the sketch's merge semantics, and add at least one harness
// instance in internal/testkit so the contract actually runs.

// Oracle is the cross-topology result contract of one sketch type.
type Oracle struct {
	// Check validates got — computed by any topology — against the
	// reference result ref and the source partitions. nil means exact:
	// reflect.DeepEqual(ref, got).
	Check func(sk Sketch, parts []*table.Table, ref, got Result) error
	// PeerExact demands reflect.DeepEqual between results of two
	// topologies sharing scan geometry.
	PeerExact bool
	// Peer validates two same-geometry results when PeerExact is false.
	Peer func(sk Sketch, parts []*table.Table, a, b Result) error
}

var oracles = map[reflect.Type]Oracle{}

// RegisterOracle installs the oracle for proto's concrete type.
func RegisterOracle(proto Sketch, o Oracle) {
	oracles[reflect.TypeOf(proto)] = o
}

// OracleFor returns the oracle of sk's concrete type.
func OracleFor(sk Sketch) (Oracle, bool) {
	o, ok := oracles[reflect.TypeOf(sk)]
	return o, ok
}

// CheckResult applies the oracle's reference contract.
func (o Oracle) CheckResult(sk Sketch, parts []*table.Table, ref, got Result) error {
	if o.Check == nil {
		return exactEqual(ref, got)
	}
	return o.Check(sk, parts, ref, got)
}

// CheckPeer applies the oracle's same-geometry contract.
func (o Oracle) CheckPeer(sk Sketch, parts []*table.Table, a, b Result) error {
	if o.PeerExact || o.Peer == nil {
		return exactEqual(a, b)
	}
	return o.Peer(sk, parts, a, b)
}

func exactEqual(want, got Result) error {
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("results differ\n want %+v\n  got %+v", want, got)
	}
	return nil
}

// exact is the oracle of deterministic, integer-merged sketches.
var exact = Oracle{PeerExact: true}

func init() {
	RegisterOracle(&HistogramSketch{}, exact)
	RegisterOracle(&Histogram2DSketch{}, Oracle{Check: checkHist2D, PeerExact: true})
	RegisterOracle(&TrellisSketch{}, Oracle{Check: checkTrellis, PeerExact: true})
	RegisterOracle(&NextKSketch{}, exact)
	RegisterOracle(&FindTextSketch{}, exact)
	RegisterOracle(&RangeSketch{}, exact)
	RegisterOracle(&DistinctCountSketch{}, exact)
	RegisterOracle(&DistinctBottomKSketch{}, exact)
	RegisterOracle(&MetaSketch{}, exact)

	RegisterOracle(&SampledHistogramSketch{}, Oracle{Check: checkSampledHist, PeerExact: true})
	RegisterOracle(&CDFSketch{}, Oracle{Check: checkCDF, PeerExact: true})
	RegisterOracle(&QuantileSketch{}, Oracle{Check: checkQuantile, PeerExact: true})
	RegisterOracle(&SampleHeavyHittersSketch{}, Oracle{Check: checkSampleHH, PeerExact: true})

	RegisterOracle(&MisraGriesSketch{}, Oracle{Check: checkMisraGries, Peer: peerMisraGries})
	RegisterOracle(&MomentsSketch{}, Oracle{Check: checkMoments, Peer: checkMoments4})
}

// ---- ground-truth helpers -------------------------------------------------

// columnCounts scans parts row-at-a-time and returns exact value counts
// for one column plus the total member rows — the ground truth the
// heavy-hitter bounds are stated against.
func columnCounts(parts []*table.Table, colName string) (map[table.Value]int64, int64, error) {
	truth := map[table.Value]int64{}
	var total int64
	for _, t := range parts {
		col, err := t.Column(colName)
		if err != nil {
			return nil, 0, err
		}
		t.Members().Iterate(func(row int) bool {
			truth[col.Value(row)]++
			total++
			return true
		})
	}
	return truth, total, nil
}

// binomialSlack returns the allowed absolute deviation of a
// Binomial(n, rate) draw from its mean: six standard deviations plus a
// small-count floor, far outside flake territory at harness sizes.
func binomialSlack(n int64, rate float64) float64 {
	return 6*math.Sqrt(math.Max(float64(n), 1)*rate*(1-rate)) + 8
}

// checkBinomial verifies got against a Binomial(n, rate) model.
func checkBinomial(what string, got, n int64, rate float64) error {
	if d := math.Abs(float64(got) - rate*float64(n)); d > binomialSlack(n, rate) {
		return fmt.Errorf("%s: sampled count %d deviates %.1f from %g·%d (slack %.1f)",
			what, got, d, rate, n, binomialSlack(n, rate))
	}
	return nil
}

// ---- sampled histogram family ---------------------------------------------

// checkSampledHistogram verifies a rate-sampled Histogram against the
// exact truth histogram: every tally is an independent per-row Binomial
// draw, so each must sit within binomialSlack of rate×truth.
func checkSampledHistogram(truth, got *Histogram, rate float64) error {
	if len(got.Counts) != len(truth.Counts) {
		return fmt.Errorf("bucket count %d, want %d", len(got.Counts), len(truth.Counts))
	}
	if got.SampleRate != rate {
		return fmt.Errorf("SampleRate = %g, want %g", got.SampleRate, rate)
	}
	if err := checkBinomial("SampledRows", got.SampledRows, truth.SampledRows, rate); err != nil {
		return err
	}
	if err := checkBinomial("Missing", got.Missing, truth.Missing, rate); err != nil {
		return err
	}
	if err := checkBinomial("OutOfRange", got.OutOfRange, truth.OutOfRange, rate); err != nil {
		return err
	}
	for i := range truth.Counts {
		if err := checkBinomial(fmt.Sprintf("bucket %d", i), got.Counts[i], truth.Counts[i], rate); err != nil {
			return err
		}
	}
	return nil
}

func checkSampledHist(sk Sketch, parts []*table.Table, ref, got Result) error {
	s := sk.(*SampledHistogramSketch)
	if s.Rate >= 1 {
		return exactEqual(ref, got)
	}
	truth, err := exactOver(&HistogramSketch{Col: s.Col, Buckets: s.Buckets}, parts)
	if err != nil {
		return err
	}
	return checkSampledHistogram(truth.(*Histogram), got.(*Histogram), s.Rate)
}

func checkCDF(sk Sketch, parts []*table.Table, ref, got Result) error {
	s := sk.(*CDFSketch)
	if s.Rate <= 0 || s.Rate >= 1 {
		return exactEqual(ref, got)
	}
	truth, err := exactOver(&CDFSketch{Col: s.Col, Buckets: s.Buckets}, parts)
	if err != nil {
		return err
	}
	return checkSampledHistogram(truth.(*Histogram), got.(*Histogram), s.Rate)
}

// exactOver computes the reference result of sk over parts.
func exactOver(sk Sketch, parts []*table.Table) (Result, error) {
	acc := sk.Zero()
	for _, t := range parts {
		r, err := sk.Summarize(t)
		if err != nil {
			return nil, err
		}
		if acc, err = sk.Merge(acc, r); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// checkSampled2D verifies a rate-sampled Histogram2D cell-by-cell
// against the exact truth grid.
func checkSampled2D(truth, got *Histogram2D, rate float64) error {
	if len(got.Counts) != len(truth.Counts) || len(got.YOther) != len(truth.YOther) {
		return fmt.Errorf("grid shape %d/%d, want %d/%d", len(got.Counts), len(got.YOther), len(truth.Counts), len(truth.YOther))
	}
	if err := checkBinomial("SampledRows", got.SampledRows, truth.SampledRows, rate); err != nil {
		return err
	}
	if err := checkBinomial("XMissing", got.XMissing, truth.XMissing, rate); err != nil {
		return err
	}
	for i := range truth.Counts {
		if err := checkBinomial(fmt.Sprintf("cell %d", i), got.Counts[i], truth.Counts[i], rate); err != nil {
			return err
		}
	}
	for i := range truth.YOther {
		if err := checkBinomial(fmt.Sprintf("yother %d", i), got.YOther[i], truth.YOther[i], rate); err != nil {
			return err
		}
	}
	return nil
}

func checkHist2D(sk Sketch, parts []*table.Table, ref, got Result) error {
	s := sk.(*Histogram2DSketch)
	if s.Rate <= 0 || s.Rate >= 1 {
		return exactEqual(ref, got)
	}
	truth, err := exactOver(&Histogram2DSketch{XCol: s.XCol, YCol: s.YCol, X: s.X, Y: s.Y}, parts)
	if err != nil {
		return err
	}
	return checkSampled2D(truth.(*Histogram2D), got.(*Histogram2D), s.Rate)
}

func checkTrellis(sk Sketch, parts []*table.Table, ref, got Result) error {
	s := sk.(*TrellisSketch)
	if s.Rate <= 0 || s.Rate >= 1 {
		return exactEqual(ref, got)
	}
	exactSk := *s
	exactSk.Rate = 1
	truth, err := exactOver(&exactSk, parts)
	if err != nil {
		return err
	}
	tt, gt := truth.(*Trellis), got.(*Trellis)
	if len(gt.Plots) != len(tt.Plots) {
		return fmt.Errorf("trellis has %d plots, want %d", len(gt.Plots), len(tt.Plots))
	}
	if err := checkBinomial("GroupOther", gt.GroupOther, tt.GroupOther, s.Rate); err != nil {
		return err
	}
	for i := range tt.Plots {
		if err := checkSampled2D(tt.Plots[i], gt.Plots[i], s.Rate); err != nil {
			return fmt.Errorf("plot %d: %w", i, err)
		}
	}
	return nil
}

// ---- bounded-sample sketches ----------------------------------------------

// checkQuantile verifies the structural contract of the bottom-k row
// sample: the scan visited every member row, the sample is full (or the
// data ran out), and every sampled row is a real row of the data. The
// drawn rows themselves are seed- and geometry-dependent by design.
func checkQuantile(sk Sketch, parts []*table.Table, ref, got Result) error {
	s := sk.(*QuantileSketch)
	rs, gs := ref.(*SampleSet), got.(*SampleSet)
	if gs.Total != rs.Total {
		return fmt.Errorf("Total = %d, want %d", gs.Total, rs.Total)
	}
	k := int64(s.SampleSize)
	if k < 1 {
		k = 1
	}
	want := min(k, gs.Total)
	if int64(len(gs.Items)) != want {
		return fmt.Errorf("sample holds %d rows, want %d", len(gs.Items), want)
	}
	// Existence: render every (order, extra) projection of the data once
	// and require each sampled row to be one of them.
	cols := append(append([]string(nil), s.Order.Columns()...), s.Extra...)
	real := map[string]bool{}
	for _, t := range parts {
		idx := make([]int, len(cols))
		for i, name := range cols {
			if idx[i] = t.Schema().ColumnIndex(name); idx[i] < 0 {
				return fmt.Errorf("no column %q", name)
			}
		}
		t.Members().Iterate(func(row int) bool {
			real[t.GetRowCols(row, idx).String()] = true
			return true
		})
	}
	for _, it := range gs.Items {
		if !real[it.Row.String()] {
			return fmt.Errorf("sampled row %v does not exist in the data", it.Row)
		}
	}
	return nil
}

// checkSampleHH verifies the sampling heavy-hitters contract: sample
// counts are per-row Binomial draws of the exact per-value counts, and
// only real values are counted.
func checkSampleHH(sk Sketch, parts []*table.Table, ref, got Result) error {
	s := sk.(*SampleHeavyHittersSketch)
	if s.Rate >= 1 {
		return exactEqual(ref, got)
	}
	truth, total, err := columnCounts(parts, s.Col)
	if err != nil {
		return err
	}
	h := got.(*HeavyHitters)
	if !h.Sampled {
		return fmt.Errorf("result not marked Sampled")
	}
	if err := checkBinomial("ScannedRows", h.ScannedRows, total, s.Rate); err != nil {
		return err
	}
	for v, c := range h.Counters {
		tc, ok := truth[v]
		if !ok {
			return fmt.Errorf("counted value %v does not exist in the data", v)
		}
		if c > tc {
			return fmt.Errorf("value %v sampled %d times but occurs %d times", v, c, tc)
		}
		if err := checkBinomial(fmt.Sprintf("value %v", v), c, tc, s.Rate); err != nil {
			return err
		}
	}
	return nil
}

// ---- Misra–Gries ----------------------------------------------------------

// checkMisraGries enforces the structural guarantee that survives every
// merge topology (Agarwal et al.): at most K counters; each counter is
// a lower bound on the exact count, short by at most N/(K+1); and any
// value more frequent than that error bound is present. ref is unused —
// the bound is stated against exact ground truth.
func checkMisraGries(sk Sketch, parts []*table.Table, _, got Result) error {
	s := sk.(*MisraGriesSketch)
	k := s.K
	if k < 1 {
		k = 1
	}
	truth, total, err := columnCounts(parts, s.Col)
	if err != nil {
		return err
	}
	h := got.(*HeavyHitters)
	if h.ScannedRows != total {
		return fmt.Errorf("ScannedRows = %d, want %d", h.ScannedRows, total)
	}
	if len(h.Counters) > k {
		return fmt.Errorf("%d counters exceed K=%d", len(h.Counters), k)
	}
	bound := total/int64(k+1) + 1
	for v, c := range h.Counters {
		tc, ok := truth[v]
		if !ok {
			return fmt.Errorf("counter for %v, which does not exist in the data", v)
		}
		if c > tc {
			return fmt.Errorf("counter for %v = %d exceeds exact count %d", v, c, tc)
		}
		if tc-c > bound {
			return fmt.Errorf("counter for %v = %d short of exact %d by more than N/(K+1)=%d", v, c, tc, bound)
		}
	}
	for v, tc := range truth {
		if tc > bound {
			if _, ok := h.Counters[v]; !ok {
				return fmt.Errorf("value %v occurs %d > N/(K+1)=%d times but is absent", v, tc, bound)
			}
		}
	}
	return nil
}

// peerMisraGries: two topologies distribute partitions differently, so
// counters may differ; both must independently satisfy the structural
// bound against ground truth.
func peerMisraGries(sk Sketch, parts []*table.Table, a, b Result) error {
	if err := checkMisraGries(sk, parts, nil, a); err != nil {
		return err
	}
	return checkMisraGries(sk, parts, nil, b)
}

// ---- floating-point folds -------------------------------------------------

// floatClose compares two float64 folds that may associate additions
// differently: equal up to a relative epsilon generous for thousands of
// well-conditioned additions, and bit-equal for infinities and NaN.
func floatClose(what string, a, b float64) error {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return nil
	}
	if math.Abs(a-b) <= 1e-9*(math.Abs(a)+math.Abs(b)+1) {
		return nil
	}
	return fmt.Errorf("%s: %v vs %v beyond reassociation tolerance", what, a, b)
}

func checkMoments(sk Sketch, parts []*table.Table, ref, got Result) error {
	rm, gm := ref.(*Moments), got.(*Moments)
	if gm.Count != rm.Count || gm.Missing != rm.Missing {
		return fmt.Errorf("Count/Missing = %d/%d, want %d/%d", gm.Count, gm.Missing, rm.Count, rm.Missing)
	}
	if gm.Min != rm.Min || gm.Max != rm.Max {
		return fmt.Errorf("Min/Max = %v/%v, want %v/%v", gm.Min, gm.Max, rm.Min, rm.Max)
	}
	if len(gm.Sums) != len(rm.Sums) {
		return fmt.Errorf("%d moment sums, want %d", len(gm.Sums), len(rm.Sums))
	}
	for i := range rm.Sums {
		if err := floatClose(fmt.Sprintf("sum %d", i), rm.Sums[i], gm.Sums[i]); err != nil {
			return err
		}
	}
	return nil
}

func checkMoments4(sk Sketch, parts []*table.Table, a, b Result) error {
	return checkMoments(sk, parts, a, b)
}
