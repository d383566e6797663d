package sketch

import (
	"math"
	"testing"

	"repro/internal/table"
)

func TestRangeSketch(t *testing.T) {
	tbl := genTable("r", 5000, 61)
	res, err := (&RangeSketch{Col: "x"}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*DataRange)
	if r.Present+r.Missing != 5000 {
		t.Fatalf("Present+Missing = %d", r.Present+r.Missing)
	}
	if r.Min < 0 || r.Max >= 100 || r.Min >= r.Max {
		t.Errorf("range [%g, %g] implausible", r.Min, r.Max)
	}
	if r.Missing == 0 {
		t.Error("expected some missing values")
	}
	checkExactMergeability(t, &RangeSketch{Col: "x"}, tbl, 6)

	// String ranges.
	res, err = (&RangeSketch{Col: "cat"}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.(*DataRange)
	if sr.MinS != "alpha" || sr.MaxS != "zeta" {
		t.Errorf("string range [%q, %q]", sr.MinS, sr.MaxS)
	}
	checkExactMergeability(t, &RangeSketch{Col: "cat"}, tbl, 6)
}

func TestRangeMergeIdentity(t *testing.T) {
	sk := &RangeSketch{Col: "x"}
	tbl := genTable("ri", 100, 62)
	r, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// Zero on either side is identity.
	m1, err := sk.Merge(sk.Zero(), r)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sk.Merge(r, sk.Zero())
	if err != nil {
		t.Fatal(err)
	}
	dr, d1, d2 := r.(*DataRange), m1.(*DataRange), m2.(*DataRange)
	if *d1 != *dr || *d2 != *dr {
		t.Errorf("Zero is not identity: %+v vs %+v / %+v", dr, d1, d2)
	}
}

func TestMomentsSketch(t *testing.T) {
	// Known data: 1..1000, mean 500.5, variance (n²-1)/12.
	schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt})
	b := table.NewBuilder(schema, 1000)
	for i := 1; i <= 1000; i++ {
		b.AppendRow(table.Row{table.IntValue(int64(i))})
	}
	tbl := b.Freeze("mom")
	res, err := (&MomentsSketch{Col: "v", K: 4}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	m := res.(*Moments)
	if m.Count != 1000 || m.Min != 1 || m.Max != 1000 {
		t.Fatalf("basic stats wrong: %+v", m)
	}
	if math.Abs(m.Mean()-500.5) > 1e-9 {
		t.Errorf("mean = %v", m.Mean())
	}
	wantVar := (1000.0*1000.0 - 1) / 12
	if math.Abs(m.Variance()-wantVar)/wantVar > 1e-9 {
		t.Errorf("variance = %v, want %v", m.Variance(), wantVar)
	}
	// Mergeability with floating-point tolerance.
	parts := summarizeParts(t, &MomentsSketch{Col: "v", K: 4}, splitTable(tbl, 4))
	merged, err := MergeAll(&MomentsSketch{Col: "v", K: 4}, parts...)
	if err != nil {
		t.Fatal(err)
	}
	mm := merged.(*Moments)
	if mm.Count != m.Count || mm.Min != m.Min || mm.Max != m.Max {
		t.Errorf("merged counts differ: %+v", mm)
	}
	if math.Abs(mm.Mean()-m.Mean()) > 1e-6 {
		t.Errorf("merged mean differs: %v vs %v", mm.Mean(), m.Mean())
	}
	// Errors.
	tbl2 := genTable("mo2", 10, 63)
	if _, err := (&MomentsSketch{Col: "cat"}).Summarize(tbl2); err == nil {
		t.Error("moments over string column should error")
	}
	var empty Moments
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Variance()) {
		t.Error("empty moments should be NaN")
	}
}

func TestHyperLogLogAccuracy(t *testing.T) {
	for _, cardinality := range []int{100, 5000, 200000} {
		schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt})
		n := cardinality * 3 // duplicates must not matter
		b := table.NewBuilder(schema, n)
		for i := 0; i < n; i++ {
			b.AppendRow(table.Row{table.IntValue(int64(i % cardinality))})
		}
		tbl := b.Freeze("hll")
		res, err := (&DistinctCountSketch{Col: "v"}).Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		got := res.(*HLL).Estimate()
		relErr := math.Abs(got-float64(cardinality)) / float64(cardinality)
		if relErr > 0.05 { // 1.04/sqrt(4096) ≈ 1.6%; allow 3σ
			t.Errorf("cardinality %d: estimate %.0f (rel err %.3f)", cardinality, got, relErr)
		}
	}
}

func TestHyperLogLogMergeability(t *testing.T) {
	// HLL is fully partition-insensitive: registers depend only on the
	// value set.
	tbl := genTable("hllm", 20000, 64)
	sk := &DistinctCountSketch{Col: "cat"}
	checkExactMergeability(t, sk, tbl, 8)
	// 8 distinct categories, exactly.
	res, _ := sk.Summarize(tbl)
	est := res.(*HLL).Estimate()
	if est < 7 || est > 9 {
		t.Errorf("distinct categories estimate = %v, want ≈8", est)
	}
}

func TestHyperLogLogStrings(t *testing.T) {
	// String column with known distinct count, exercising the dictionary
	// fast path under a filtered membership.
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	b := table.NewBuilder(schema, 1000)
	for i := 0; i < 1000; i++ {
		b.AppendRow(table.Row{table.StringValue(string(rune('a' + i%20)))})
	}
	tbl := b.Freeze("hlls")
	// Filter to every third row: gcd(3,20)=1, so all 20 values survive.
	filtered := tbl.Filter("hlls-f", func(i int) bool { return i%3 == 0 })
	res, err := (&DistinctCountSketch{Col: "s"}).Summarize(filtered)
	if err != nil {
		t.Fatal(err)
	}
	if est := res.(*HLL).Estimate(); math.Abs(est-20) > 2 {
		t.Errorf("filtered distinct estimate = %v, want ≈20", est)
	}
	// Filter to rows holding only 5 values.
	col := tbl.MustColumn("s").(*table.StringColumn)
	f5 := tbl.Filter("hlls-5", func(i int) bool { return col.Str(i) < "f" })
	res, err = (&DistinctCountSketch{Col: "s"}).Summarize(f5)
	if err != nil {
		t.Fatal(err)
	}
	if est := res.(*HLL).Estimate(); math.Abs(est-5) > 1 {
		t.Errorf("5-value distinct estimate = %v", est)
	}
}

func TestBottomKExactSmallCardinality(t *testing.T) {
	tbl := genTable("bk", 3000, 65)
	sk := &DistinctBottomKSketch{Col: "cat", K: 100}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	set := res.(*BottomKSet)
	if !set.AllValues {
		t.Fatal("8 distinct values with K=100 should be exact")
	}
	if len(set.Values) != 8 {
		t.Fatalf("got %d values, want 8", len(set.Values))
	}
	buckets := set.Buckets(50)
	if !buckets.ExactValues || buckets.Count != 8 {
		t.Errorf("buckets = %+v", buckets)
	}
	checkExactMergeability(t, sk, tbl, 5)
}

// TestBottomKRejectsNumericColumn: bottom-k samples a dictionary's
// values, for string bucket bounds; a numeric column has a range and
// gets an error, as do numeric buckets over a string column.
func TestBottomKRejectsNumericColumn(t *testing.T) {
	tbl := genTable("bkn", 100, 66)
	if _, err := (&DistinctBottomKSketch{Col: "x", K: 10}).Summarize(tbl); err == nil {
		t.Error("bottom-k over a double column: no error")
	}
	if _, err := StringBucketsFromBounds([]string{"a"}, false).BatchIndexer(tbl.MustColumn("x")); err == nil {
		t.Error("string buckets over a double column: no error")
	}
}

func TestBottomKLargeCardinality(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	const n = 20000
	b := table.NewBuilder(schema, n)
	for i := 0; i < n; i++ {
		b.AppendRow(table.Row{table.StringValue(string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)))})
	}
	tbl := b.Freeze("bigbk")
	sk := &DistinctBottomKSketch{Col: "s", K: 500}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	set := res.(*BottomKSet)
	if set.AllValues {
		t.Fatal("large cardinality should overflow K")
	}
	if len(set.Values) != 500 {
		t.Fatalf("sample size = %d", len(set.Values))
	}
	buckets := set.Buckets(50)
	if buckets.ExactValues || buckets.Count > 50 || buckets.Count < 40 {
		t.Errorf("buckets = %d exact=%t", buckets.Count, buckets.ExactValues)
	}
	// Boundaries must be sorted.
	for i := 1; i < len(buckets.Bounds); i++ {
		if buckets.Bounds[i] <= buckets.Bounds[i-1] {
			t.Fatal("bucket bounds not strictly sorted")
		}
	}
	checkExactMergeability(t, sk, tbl, 6)
}
