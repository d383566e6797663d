package sketch

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/table"
)

// divisionIndex is the IndexValue contract: the division bucket form,
// written out independently of the implementation under test.
func divisionIndex(s BucketSpec, v float64) int {
	if s.Count <= 0 || v < s.Min || v > s.Max {
		return -1
	}
	if s.Max == s.Min {
		return 0
	}
	i := int(float64(s.Count) * (v - s.Min) / (s.Max - s.Min))
	if i >= s.Count {
		i = s.Count - 1
	}
	return i
}

// checkRowAndBatchForms compares the row form (IndexValue), the batch
// form (numericIndex.index) and the division contract on every bucket
// boundary, the ±4-ulp neighborhood of each, the endpoints, and a swarm
// of random in-range values.
func checkRowAndBatchForms(t *testing.T, s BucketSpec, rng *rand.Rand) {
	t.Helper()
	batch := newNumericIndex(s)
	probe := func(v float64) {
		row, want := s.IndexValue(v), divisionIndex(s, v)
		if row != want {
			t.Fatalf("spec %s: IndexValue(%g) = %d, division form = %d", s, v, row, want)
		}
		if got := int(batch.index(v)); got != row {
			t.Fatalf("spec %s: batch index(%g) = %d, IndexValue = %d", s, v, got, row)
		}
	}
	w := (s.Max - s.Min) / float64(s.Count)
	for j := 0; j <= s.Count; j++ {
		b := s.Min + float64(j)*w
		probe(b)
		up, down := b, b
		for step := 0; step < 4; step++ {
			up = math.Nextafter(up, math.Inf(1))
			down = math.Nextafter(down, math.Inf(-1))
			probe(up)
			probe(down)
		}
	}
	probe(s.Min)
	probe(s.Max)
	probe(math.Nextafter(s.Min, math.Inf(-1))) // just outside: both -1
	probe(math.Nextafter(s.Max, math.Inf(1)))
	for i := 0; i < 2000; i++ {
		probe(s.Min + rng.Float64()*(s.Max-s.Min))
	}
}

// TestBatchIndexMatchesIndexValue is the boundary sweep of the bucket
// arithmetic: for fixed and random geometries the batch kernels'
// index and the row form IndexValue agree with the division contract
// at every bucket boundary and its ulp neighbors — so a fused count
// kernel and the row-at-a-time reference can never bucket a row
// differently.
func TestBatchIndexMatchesIndexValue(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	specs := []BucketSpec{
		NumericBuckets(table.KindInt, 0, 1000000, 50),
		NumericBuckets(table.KindDouble, 0, 3000, 25),
		NumericBuckets(table.KindDouble, -273.15, 12345.678, 37),
		NumericBuckets(table.KindDouble, 1e-9, 2e-9, 41),
		NumericBuckets(table.KindDouble, -1e12, 1e12, 7),
		NumericBuckets(table.KindDouble, 0, 0.1, 1000),
		NumericBuckets(table.KindDouble, 5e-324, 1e-300, 13), // denormal edge
		NumericBuckets(table.KindDouble, 0, 100, 10),
	}
	for i := 0; i < 60; i++ {
		min := (rng.Float64() - 0.5) * math.Pow(10, rng.Float64()*16-8)
		width := rng.Float64() * math.Pow(10, rng.Float64()*16-8)
		if width <= 0 {
			width = 1
		}
		specs = append(specs, NumericBuckets(table.KindDouble, min, min+width, 1+rng.IntN(2000)))
	}
	for _, s := range specs {
		checkRowAndBatchForms(t, s, rng)
	}
	// The degenerate single-point range maps everything to bucket 0.
	p := NumericBuckets(table.KindDouble, 5, 5, 4)
	if p.IndexValue(5) != 0 || p.IndexValue(4.9) != -1 || newNumericIndex(p).index(5) != 0 {
		t.Error("single-point range misroutes")
	}
}

// TestIndexValueInfiniteBounds: a data-derived range over a column
// holding ±Inf (or a spec decoded from a crafted frame) has an infinite
// width, so the division quotient can be NaN. Every in-range value must
// still land in a bucket, identically on the row and batch paths, and a
// histogram over such a column must count every row instead of
// panicking on a negative tally index.
func TestIndexValueInfiniteBounds(t *testing.T) {
	inf := math.Inf(1)
	for _, s := range []BucketSpec{
		NumericBuckets(table.KindDouble, 1, inf, 4),
		NumericBuckets(table.KindDouble, -inf, inf, 4),
		NumericBuckets(table.KindDouble, -inf, 0, 4),
		NumericBuckets(table.KindDouble, -math.MaxFloat64, math.MaxFloat64, 10),
	} {
		batch := newNumericIndex(s)
		for _, v := range []float64{s.Min, s.Max, 0, 1, 2, -1, math.MaxFloat64, -math.MaxFloat64} {
			row := s.IndexValue(v)
			if got := int(batch.index(v)); got != row {
				t.Errorf("spec %s: batch index(%g) = %d, IndexValue = %d", s, v, got, row)
			}
			if in := v >= s.Min && v <= s.Max; in && (row < 0 || row >= s.Count) {
				t.Errorf("spec %s: in-range %g indexed to %d", s, v, row)
			}
		}
	}
	vals := []float64{1, 2, inf}
	tbl := table.New("inf",
		table.NewSchema(table.ColumnDesc{Name: "d", Kind: table.KindDouble}),
		[]table.Column{table.NewDoubleColumn(vals, nil)}, table.FullMembership(len(vals)))
	sk := &HistogramSketch{Col: "d", Buckets: NumericBuckets(table.KindDouble, 1, inf, 4)}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if h := res.(*Histogram); h.TotalCount() != 3 || h.OutOfRange != 0 {
		t.Errorf("rows miscounted over an infinite range: %+v", h)
	}
	if want := refHistogram(tbl, "d", sk.Buckets, 1, 0); !reflect.DeepEqual(res, want) {
		t.Errorf("batch and reference paths differ over an infinite range")
	}
}

// TestIndexValueNaN: NaN compares false against both bounds, so it must
// be rejected as out-of-range by every index form — a NaN that reached
// the int conversion would produce a platform-defined bucket and crash
// the fused count kernels.
func TestIndexValueNaN(t *testing.T) {
	for _, s := range []BucketSpec{
		NumericBuckets(table.KindDouble, 0, 100, 10),
		NumericBuckets(table.KindDouble, 5, 5, 4), // degenerate
	} {
		if got := s.IndexValue(math.NaN()); got != -1 {
			t.Errorf("spec %s: IndexValue(NaN) = %d, want -1", s, got)
		}
		if got := newNumericIndex(s).index(math.NaN()); got != -1 {
			t.Errorf("spec %s: batch index(NaN) = %d, want -1", s, got)
		}
	}
	// End to end: a double column holding NaN rows must histogram them
	// as out-of-range, identically on the batch and scalar paths.
	vals := []float64{1, math.NaN(), 50, math.NaN(), 99}
	col := table.NewDoubleColumn(vals, nil)
	tbl := table.New("nan",
		table.NewSchema(table.ColumnDesc{Name: "d", Kind: table.KindDouble}),
		[]table.Column{col}, table.FullMembership(len(vals)))
	sk := &HistogramSketch{Col: "d", Buckets: NumericBuckets(table.KindDouble, 0, 100, 10)}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	h := res.(*Histogram)
	if h.OutOfRange != 2 || h.TotalCount() != 3 {
		t.Errorf("NaN rows miscounted: outOfRange=%d total=%d", h.OutOfRange, h.TotalCount())
	}
	want := refHistogram(tbl, "d", sk.Buckets, 1, 0)
	if !reflect.DeepEqual(res, want) {
		t.Errorf("NaN handling differs between batch and reference paths")
	}
}
