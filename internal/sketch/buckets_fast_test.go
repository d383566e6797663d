package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

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
// form (numericIndex.slot, less two) and the division contract on every bucket
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
		if got := int(batch.slot(v)) - 2; got != row {
			t.Fatalf("spec %s: batch slot(%g)-2 = %d, IndexValue = %d", s, v, got, row)
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
// slot and the row form IndexValue agree with the division contract
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
	if p.IndexValue(5) != 0 || p.IndexValue(4.9) != -1 || newNumericIndex(p).slot(5) != 2 {
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
			if got := int(batch.slot(v)) - 2; got != row {
				t.Errorf("spec %s: batch slot(%g)-2 = %d, IndexValue = %d", s, v, got, row)
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
		if got := newNumericIndex(s).slot(math.NaN()); got != 1 {
			t.Errorf("spec %s: batch slot(NaN) = %d, want 1 (out of range)", s, got)
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

// FuzzIntSlotTable: for any int64 v and any int spec, the slot the
// table kernels give v — through IndexSpan, IndexRows, CountSpan and
// CountRows — is IndexValue(float64(v))+2, whether v is in the table,
// outside it, or rounds into the bucket range from past ±2⁵³. Specs that
// get no table check the divide kernel instead. The checked-in corpus
// holds the int64 extremes, ±2⁵³±1 beside bounds at ±2⁵³, Min == Max
// and fractional bounds.
func FuzzIntSlotTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, v int64, lo, hi float64, count int16) {
		spec := BucketSpec{Kind: table.KindInt, Min: lo, Max: hi, Count: int(count)}
		want := int32(spec.IndexValue(float64(v)) + 2)
		p := newNumericIndex(spec)
		var bi BatchIndexer = &numBatchIndexer[int64]{vals: []int64{v}, p: p}
		if tabLo, tab, ok := spec.intSlotTable(p, intTableRowsPerValue*intTableMax); ok {
			bi = &intTableBatchIndexer{vals: []int64{v}, tab: tab, lo: tabLo, p: p}
		}
		span, rows := []int32{-1}, []int32{-1}
		bi.IndexSpan(0, 1, span)
		bi.IndexRows([]int32{0}, rows)
		spanT := make([]int64, max(int(count), 0)+2)
		rowsT := make([]int64, len(spanT))
		bc := bi.(bucketCounter)
		bc.CountSpan(0, 1, spanT)
		bc.CountRows([]int32{0}, rowsT)
		if span[0] != want || rows[0] != want || spanT[want] != 1 || rowsT[want] != 1 {
			t.Fatalf("%T %s: v=%d: IndexSpan %d, IndexRows %d, CountSpan %v, CountRows %v; IndexValue+2 = %d",
				bi, spec, v, span[0], rows[0], spanT, rowsT, want)
		}
	})
}

// FuzzSlotKernels: for any float64 v, any int64 iv and any numeric
// spec, the divide kernels (numBatchIndexer over doubles and over wide
// int ranges) give v and iv the slot IndexValue+2 through every entry
// point: IndexSpan, IndexRows, CountSpan, CountRows, and CountWords on
// a lone member, a full word, and a full word with a missing row. The
// seeds are specs with NaN, ±Inf and -0 bounds, Min == Max and Count
// <= 0, each crossed with NaN, ±0, ±Inf, subnormals and the values one
// ulp either side of every bucket edge.
func FuzzSlotKernels(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, s := range []struct {
		lo, hi float64
		count  int16
	}{
		{0, 10, 5}, {0.1, 0.7, 3}, {-3, 1e9, 50}, {negZero, 0, 3}, {0, negZero, 3},
		{nan, 1, 2}, {0, nan, 2}, {nan, nan, 2}, {-inf, inf, 4}, {0, inf, 4},
		{-inf, 0, 4}, {inf, inf, 1}, {-inf, -inf, 3}, {3, 3, 7}, {1, 2, 0},
		{1, 2, -3}, {-1e308, 1e308, 50}, {5e-324, 1e-323, 2}, {7, 2, 3},
	} {
		vals := []float64{nan, 0, negZero, inf, -inf, 5e-324, -5e-324, s.lo, s.hi}
		if s.count > 0 {
			w := (s.hi - s.lo) / float64(s.count)
			for j := 0; j <= int(s.count); j++ {
				e := s.lo + float64(j)*w
				vals = append(vals, math.Nextafter(e, -inf), e, math.Nextafter(e, inf))
			}
		}
		for _, v := range vals {
			iv := int64(0)
			if math.Abs(v) < 1<<62 {
				iv = int64(v)
			}
			f.Add(v, iv, s.lo, s.hi, s.count)
		}
	}
	f.Fuzz(func(t *testing.T, v float64, iv int64, lo, hi float64, count int16) {
		spec := BucketSpec{Kind: table.KindDouble, Min: lo, Max: hi, Count: int(count)}
		p := newNumericIndex(spec)
		checkSlotKernels(t, spec, v, int32(spec.IndexValue(v)+2), p)
		checkSlotKernels(t, spec, iv, int32(spec.IndexValue(float64(iv))+2), p)
	})
}

// checkSlotKernels fails t unless every entry point of the divide
// kernel over value v gives slot want (see FuzzSlotKernels).
func checkSlotKernels[T int64 | float64](t *testing.T, spec BucketSpec, v T, want int32, p numericIndex) {
	t.Helper()
	vals := make([]T, 64)
	for i := range vals {
		vals[i] = v
	}
	miss := table.NewBitset(len(vals))
	miss.Set(5)
	bi := &numBatchIndexer[T]{vals: vals, p: p}
	masked := &numBatchIndexer[T]{vals: vals, miss: miss, p: p}
	span, rows := []int32{-1}, []int32{-1}
	bi.IndexSpan(0, 1, span)
	bi.IndexRows([]int32{0}, rows)
	n := max(spec.Count, 0) + 2
	tally := func(count func(tallies []int64)) []int64 {
		tallies := make([]int64, n)
		count(tallies)
		return tallies
	}
	spanT := tally(func(t []int64) { bi.CountSpan(0, 1, t) })
	rowsT := tally(func(t []int64) { bi.CountRows([]int32{0}, t) })
	wordT := tally(func(t []int64) { bi.CountWords(0, []uint64{1}, t) })
	fullT := tally(func(t []int64) { bi.CountWords(0, []uint64{^uint64(0)}, t) })
	maskT := tally(func(t []int64) { masked.CountWords(0, []uint64{^uint64(0)}, t) })
	if span[0] != want || rows[0] != want || spanT[want] != 1 || rowsT[want] != 1 ||
		wordT[want] != 1 || fullT[want] != 64 || maskT[want] != 63 || maskT[0] != 1 {
		t.Fatalf("%T %s: v=%v: IndexSpan %d, IndexRows %d, CountSpan %v, CountRows %v, CountWords %v, full %v, masked %v; IndexValue+2 = %d",
			v, spec, v, span[0], rows[0], spanT, rowsT, wordT, fullT, maskT, want)
	}
}

// BenchmarkKernelIntDomain is where the slot-table gate is read off: an
// exact histogram over uniform int rows in [0, span), 50 buckets, run
// alternately through a slot table (built inside the timed scan, as
// BatchIndexer builds one per partition and axis) and through the
// per-row divide. At 2²⁰ rows the span sweeps 12 … 2²⁰, where
// intTableMax is read off; at 4000 rows (an ingest batch) and 125000
// rows (a flights partition) it sweeps span/rows from 1/32 to 1, where
// the table's build cost meets its savings and intTableRowsPerValue is
// read off. The table side ignores both limits, so each sweep shows
// where the two lines cross.
func BenchmarkKernelIntDomain(b *testing.B) {
	sweep := func(rows int, spans []int64) {
		vals := make([]int64, rows)
		m := table.FullMembership(rows)
		for _, span := range spans {
			x := uint64(span)
			for i := range vals {
				x += 0x9e3779b97f4a7c15
				z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
				vals[i] = int64((z ^ z>>27) % uint64(span))
			}
			spec := NumericBuckets(table.KindInt, 0, float64(span-1), 50)
			b.Run(fmt.Sprintf("rows=%d/span=%d", rows, span), func(b *testing.B) {
				scan := func(useTable bool) time.Duration {
					start := time.Now()
					p := newNumericIndex(spec)
					var bi BatchIndexer = &numBatchIndexer[int64]{vals: vals, p: p}
					if useTable {
						tab := make([]int32, span)
						for i := range tab {
							tab[i] = p.slot(float64(i))
						}
						bi = &intTableBatchIndexer{vals: vals, tab: tab, p: p}
					}
					histogramScan(m, bi, &Histogram{Counts: make([]int64, spec.Count)})
					return time.Since(start)
				}
				var tableT, divideT time.Duration
				for i := 0; i < b.N; i++ {
					tableT += scan(true)
					divideT += scan(false)
				}
				mrows := float64(rows) * float64(b.N) / 1e6
				b.ReportMetric(mrows/tableT.Seconds(), "table_Mrows/s")
				b.ReportMetric(mrows/divideT.Seconds(), "divide_Mrows/s")
				b.ReportMetric(divideT.Seconds()/tableT.Seconds(), "speedup")
			})
		}
	}
	sweep(1<<20, []int64{12, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20})
	for _, rows := range []int64{4000, 125000} {
		sweep(int(rows), []int64{rows / 32, rows / 16, rows / 8, rows / 4, rows / 2, rows})
	}
}
