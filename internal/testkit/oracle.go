package testkit

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"repro/internal/sketch"
	"repro/internal/table"
)

// This file holds the differential-oracle contracts: for every shipped
// sketch type it records how results computed by different execution
// topologies — the reference Summarize + sequential MergeAll fold, the
// parallel accumulator engine, and the distributed cluster path — are
// allowed to relate. The batteries drive all topologies over generated
// tables and apply these contracts; TestOracleCoversWireSketches fails
// if a sketch in sketch.WireSketches() has no contract here.
//
// The per-sketch contract has two halves:
//
//   - check compares a topology's result against the reference result
//     and the source partitions (which supply ground truth for
//     approximation sketches). For deterministic sketches this is
//     reflect.DeepEqual: mergeability (paper §4.1) promises the exact
//     same summary from every merge order. Sampling sketches re-seed
//     per partition, so a topology that cuts the rows into other
//     partitions (another micropartition size, say) draws a different
//     (equally valid) sample than the reference; their check verifies
//     the documented statistical error bound against exact ground truth
//     instead. Misra–Gries is deterministic but merge-order-sensitive
//     within its structural N/(K+1) bound, which its check enforces
//     directly. Both of its leaf rules feed that bound: a small
//     dictionary column is tallied exactly and pruned with Merge's own
//     rule, so a leaf is Merge(exact counts, Zero) whatever the row
//     order; every other column streams and loses at most rows/(K+1)
//     per counter. What still shows in the bits is the merge tree's
//     shape. The floating-point fold sketch (moments) is exact up to
//     addition reassociation and gets a relative-epsilon compare.
//
//   - peer compares two topologies that share scan geometry (the same
//     partitions under the same IDs — e.g. the local parallel engine vs
//     the cluster path). Per-partition sampling seeds derive only from
//     (query seed, partition table ID), so even randomized sketches
//     must agree bit-for-bit across same-geometry topologies. Only
//     Misra–Gries (worker partitioning changes merge order) and the
//     float-fold sketch (reassociation) are exempt and get a bound-based
//     peer.
//
// To give a new sketch a contract: add its prototype to the sketch
// package's wireSketches, add a case to contract below matching the
// sketch's merge semantics, and add at least one instance to Instances
// so the contract actually runs.

// contractFunc relates two results of sk over parts: a topology's result
// to the reference one (check), or two same-geometry results (peer).
type contractFunc func(sk sketch.Sketch, parts []*table.Table, a, b sketch.Result) error

// contract returns the check and peer halves of sk's contract, or an
// error for a sketch type it does not know.
func contract(sk sketch.Sketch) (check, peer contractFunc, err error) {
	switch sk.(type) {
	case *sketch.FindTextSketch, *sketch.RangeSketch,
		*sketch.DistinctCountSketch, *sketch.DistinctBottomKSketch, *sketch.MetaSketch:
		return exact, exact, nil
	case *sketch.NextKSketch:
		return checkNextK, exact, nil
	case *sketch.Histogram2DSketch:
		return checkHist2D, exact, nil
	case *sketch.TrellisSketch:
		return checkTrellis, exact, nil
	case *sketch.HistogramSketch:
		return checkHist, exact, nil
	case *sketch.QuantileSketch:
		return checkQuantile, exact, nil
	case *sketch.SampleHeavyHittersSketch:
		return checkSampleHH, exact, nil
	case *sketch.MisraGriesSketch:
		return checkMisraGries, peerMisraGries, nil
	case *sketch.MomentsSketch:
		return checkMoments, checkMoments, nil
	case *sketch.MultiSketch:
		return memberWise(checkResult), memberWise(checkPeer), nil
	}
	return nil, nil, fmt.Errorf("no oracle contract for %T", sk)
}

// checkResult holds got, computed by any topology, to sk's reference
// contract against ref.
func checkResult(sk sketch.Sketch, parts []*table.Table, ref, got sketch.Result) error {
	check, _, err := contract(sk)
	if err != nil {
		return err
	}
	return check(sk, parts, ref, got)
}

// checkPeer holds two results of topologies that share scan geometry to
// sk's same-geometry contract.
func checkPeer(sk sketch.Sketch, parts []*table.Table, a, b sketch.Result) error {
	_, peer, err := contract(sk)
	if err != nil {
		return err
	}
	return peer(sk, parts, a, b)
}

// exact is the contract of deterministic, integer-merged sketches.
func exact(_ sketch.Sketch, _ []*table.Table, want, got sketch.Result) error {
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("results differ\n want %+v\n  got %+v", want, got)
	}
	return nil
}

// memberWise lifts a member contract (checkResult or checkPeer) to a
// MultiSketch: each member's slot of the batched results is held to
// that member's own contract.
func memberWise(member contractFunc) contractFunc {
	return func(sk sketch.Sketch, parts []*table.Table, a, b sketch.Result) error {
		ms := sk.(*sketch.MultiSketch)
		ma, ok := a.(*sketch.MultiResult)
		if !ok {
			return fmt.Errorf("result is %T, want *MultiResult", a)
		}
		mb, ok := b.(*sketch.MultiResult)
		if !ok {
			return fmt.Errorf("result is %T, want *MultiResult", b)
		}
		if len(ma.Members) != len(ms.Sketches) || len(mb.Members) != len(ms.Sketches) {
			return fmt.Errorf("member counts %d/%d, want %d", len(ma.Members), len(mb.Members), len(ms.Sketches))
		}
		for i, m := range ms.Sketches {
			if err := member(m, parts, ma.Members[i], mb.Members[i]); err != nil {
				return fmt.Errorf("member %d (%s): %w", i, m.Name(), err)
			}
		}
		return nil
	}
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

// ---- histogram -----------------------------------------------------------

// checkHist holds a full scan to the reference bits, and a histogram
// sampled at a rate in (0, 1) to the exact truth histogram: every tally
// is an independent per-row Binomial draw, so each must sit within
// binomialSlack of rate×truth.
func checkHist(sk sketch.Sketch, parts []*table.Table, ref, got sketch.Result) error {
	s := sk.(*sketch.HistogramSketch)
	rate := s.Rate
	if !(rate > 0 && rate < 1) {
		return exact(sk, parts, ref, got)
	}
	full, err := reference(&sketch.HistogramSketch{Col: s.Col, Buckets: s.Buckets}, parts)
	if err != nil {
		return err
	}
	truth, h := full.(*sketch.Histogram), got.(*sketch.Histogram)
	if len(h.Counts) != len(truth.Counts) {
		return fmt.Errorf("bucket count %d, want %d", len(h.Counts), len(truth.Counts))
	}
	if h.SampleRate != rate {
		return fmt.Errorf("SampleRate = %g, want %g", h.SampleRate, rate)
	}
	if err := checkBinomial("SampledRows", h.SampledRows, truth.SampledRows, rate); err != nil {
		return err
	}
	if err := checkBinomial("Missing", h.Missing, truth.Missing, rate); err != nil {
		return err
	}
	if err := checkBinomial("OutOfRange", h.OutOfRange, truth.OutOfRange, rate); err != nil {
		return err
	}
	for i := range truth.Counts {
		if err := checkBinomial(fmt.Sprintf("bucket %d", i), h.Counts[i], truth.Counts[i], rate); err != nil {
			return err
		}
	}
	return nil
}

// checkSampled2D verifies a rate-sampled Histogram2D cell-by-cell
// against the exact truth grid.
func checkSampled2D(truth, got *sketch.Histogram2D, rate float64) error {
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

func checkHist2D(sk sketch.Sketch, parts []*table.Table, ref, got sketch.Result) error {
	s := sk.(*sketch.Histogram2DSketch)
	if s.Rate <= 0 || s.Rate >= 1 {
		return exact(sk, parts, ref, got)
	}
	truth, err := reference(&sketch.Histogram2DSketch{XCol: s.XCol, YCol: s.YCol, X: s.X, Y: s.Y}, parts)
	if err != nil {
		return err
	}
	return checkSampled2D(truth.(*sketch.Histogram2D), got.(*sketch.Histogram2D), s.Rate)
}

func checkTrellis(sk sketch.Sketch, parts []*table.Table, ref, got sketch.Result) error {
	s := sk.(*sketch.TrellisSketch)
	if s.Rate <= 0 || s.Rate >= 1 {
		return exact(sk, parts, ref, got)
	}
	exactSk := *s
	exactSk.Rate = 1
	truth, err := reference(&exactSk, parts)
	if err != nil {
		return err
	}
	tt, gt := truth.(*sketch.Trellis), got.(*sketch.Trellis)
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
func checkQuantile(sk sketch.Sketch, parts []*table.Table, ref, got sketch.Result) error {
	s := sk.(*sketch.QuantileSketch)
	rs, gs := ref.(*sketch.SampleSet), got.(*sketch.SampleSet)
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
func checkSampleHH(sk sketch.Sketch, parts []*table.Table, ref, got sketch.Result) error {
	s := sk.(*sketch.SampleHeavyHittersSketch)
	if s.Rate >= 1 {
		return exact(sk, parts, ref, got)
	}
	truth, total, err := columnCounts(parts, s.Col)
	if err != nil {
		return err
	}
	h := got.(*sketch.HeavyHitters)
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

// ---- next-K ---------------------------------------------------------------

// checkNextK holds a next-K result to ground truth: every member row of
// parts, materialized and sorted by brute force, sharing no code with
// the pruned scan. The order is total on generated data (GenPartitions
// emits no NaN), so the truth is one list. ref is unused: the reference
// fold runs the same scan as the engine.
func checkNextK(sk sketch.Sketch, parts []*table.Table, _, got sketch.Result) error {
	s := sk.(*sketch.NextKSketch)
	names := append(s.Order.Columns(), s.Extra...)
	// cmp compares the first n columns: the order columns in their
	// directions, then the extra columns ascending.
	cmp := func(a, b table.Row, n int) int {
		for i := 0; i < n; i++ {
			c := a[i].Compare(b[i])
			if i < len(s.Order) && !s.Order[i].Ascending {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
	var rows []table.Row
	for _, t := range parts {
		cols := make([]table.Column, len(names))
		for i, name := range names {
			c, err := t.Column(name)
			if err != nil {
				return err
			}
			cols[i] = c
		}
		t.Members().Iterate(func(row int) bool {
			r := make(table.Row, len(cols))
			for i, c := range cols {
				r[i] = c.Value(row)
			}
			rows = append(rows, r)
			return true
		})
	}
	slices.SortStableFunc(rows, func(a, b table.Row) int { return cmp(a, b, len(names)) })
	want := &sketch.NextKList{Order: s.Order, K: s.K, Total: int64(len(rows))}
	for _, r := range rows {
		switch n := len(want.Rows); {
		case len(s.From) > 0 && cmp(r, s.From, len(s.Order)) <= 0:
			want.Before++
		case n > 0 && cmp(want.Rows[n-1], r, len(names)) == 0:
			want.Counts[n-1]++
		case n < s.K:
			want.Rows = append(want.Rows, r)
			want.Counts = append(want.Counts, 1)
		}
	}
	return exact(sk, parts, want, got)
}

// ---- Misra–Gries ----------------------------------------------------------

// checkMisraGries enforces the structural guarantee that survives every
// merge topology (Agarwal et al.): at most K counters; each counter is
// a lower bound on the exact count, short by at most N/(K+1); and any
// value more frequent than that error bound is present. ref is unused —
// the bound is stated against exact ground truth.
func checkMisraGries(sk sketch.Sketch, parts []*table.Table, _, got sketch.Result) error {
	s := sk.(*sketch.MisraGriesSketch)
	k := s.K
	if k < 1 {
		k = 1
	}
	truth, total, err := columnCounts(parts, s.Col)
	if err != nil {
		return err
	}
	h := got.(*sketch.HeavyHitters)
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
func peerMisraGries(sk sketch.Sketch, parts []*table.Table, a, b sketch.Result) error {
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

func checkMoments(_ sketch.Sketch, _ []*table.Table, ref, got sketch.Result) error {
	rm, gm := ref.(*sketch.Moments), got.(*sketch.Moments)
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
