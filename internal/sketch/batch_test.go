package sketch

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/table"
)

// The tests in this file prove the batch kernels equivalent to the
// row-at-a-time reference path (Membership.Iterate/Sample plus
// BucketSpec.Indexer and Column.Value), which remains in the tree as
// the ComputedColumn fallback. Every sketch result must be bit-identical
// across all membership shapes, column kinds, and missing masks, and —
// for sampled sketches — for the same seed.

// eqCase is one (table, membership-shape) configuration under test.
type eqCase struct {
	name string
	t    *table.Table
}

// eqTables builds the test matrix: every column kind (stored int,
// double, string, computed int, computed string), with and without
// missing values (incl. a non-nil all-clear mask), crossed with every
// membership shape (full, range, bitmap, sparse, restricted views).
// Column "sl" is a skewed string column whose dictionary outgrows
// mgDenseDictMax once rows reaches about 15000. The batch kernels read
// a masked column unmasked and then patch the missing rows, so three
// columns put hostile cells under a mask with runs of whole words:
// "dx" stores NaN and ±Inf and "ix" MaxInt64 and MinInt64 in its missing
// rows, and "se" is missing everywhere, with an empty dictionary.
func eqTables(rows int) []eqCase {
	ints := make([]int64, rows)
	doubles := make([]float64, rows)
	strs := make([]string, rows)
	large := make([]string, rows)
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen", "ibis", "jay"}
	for i := 0; i < rows; i++ {
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		x ^= x >> 31
		ints[i] = int64(x % 1000)
		doubles[i] = float64(x%100000) / 100.0
		strs[i] = words[x%uint64(len(words))]
		large[i] = strs[i]
		if (x>>8)%4 != 0 {
			large[i] = fmt.Sprintf("w%d", (x>>20)%6000)
		}
	}
	miss := table.NewBitset(rows)
	for i := 0; i < rows; i += 13 {
		miss.Set(i)
	}
	emptyMiss := table.NewBitset(rows) // non-nil, no bits set
	runs := table.NewBitset(rows)
	all := table.NewBitset(rows)
	hostileD := append([]float64(nil), doubles...)
	hostileI := append([]int64(nil), ints...)
	for i := 0; i < rows; i++ {
		all.Set(i)
		if i%7 != 0 && (i/200)%5 != 0 {
			continue
		}
		runs.Set(i)
		hostileD[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		hostileI[i] = []int64{math.MaxInt64, math.MinInt64}[i%2]
	}

	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "im", Kind: table.KindInt},
		table.ColumnDesc{Name: "dm", Kind: table.KindDouble},
		table.ColumnDesc{Name: "sm", Kind: table.KindString},
		table.ColumnDesc{Name: "ie", Kind: table.KindInt},
		table.ColumnDesc{Name: "ci", Kind: table.KindInt},
		table.ColumnDesc{Name: "cs", Kind: table.KindString},
		table.ColumnDesc{Name: "sl", Kind: table.KindString},
		table.ColumnDesc{Name: "dx", Kind: table.KindDouble},
		table.ColumnDesc{Name: "ix", Kind: table.KindInt},
		table.ColumnDesc{Name: "se", Kind: table.KindString},
	)
	cols := []table.Column{
		table.NewIntColumn(table.KindInt, ints, nil),
		table.NewDoubleColumn(doubles, nil),
		table.NewStringColumn(strs, nil),
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewDoubleColumn(doubles, miss),
		table.NewStringColumn(strs, miss),
		table.NewIntColumn(table.KindInt, ints, emptyMiss),
		table.NewComputedColumn(table.KindInt, rows, func(i int) table.Value {
			if i%13 == 0 {
				return table.MissingValue(table.KindInt)
			}
			return table.IntValue(ints[i])
		}),
		table.NewComputedColumn(table.KindString, rows, func(i int) table.Value {
			return table.StringValue(strs[i])
		}),
		table.NewStringColumn(large, miss),
		table.NewDoubleColumn(hostileD, runs),
		table.NewIntColumn(table.KindInt, hostileI, runs),
		table.NewStringColumn(strs, all),
	}

	bits := table.NewBitset(rows)
	for i := 0; i < rows; i++ {
		x := uint64(i) * 0xbf58476d1ce4e5b9
		if (x^x>>17)&3 != 3 {
			bits.Set(i)
		}
	}
	var sparse []int32
	for i := 5; i < rows; i += 23 {
		sparse = append(sparse, int32(i))
	}
	shapes := map[string]table.Membership{
		"full":       table.FullMembership(rows),
		"range":      table.NewRangeMembership(rows/7, rows-rows/9, rows),
		"bitmap":     table.NewBitmapMembership(bits),
		"sparse":     table.NewSparseMembership(sparse, rows),
		"bitmap/cut": rowWindow(table.NewBitmapMembership(bits), 61, rows-130),
		"sparse/cut": rowWindow(table.NewSparseMembership(sparse, rows), 100, rows-100),
	}
	var cases []eqCase
	for name, m := range shapes {
		cases = append(cases, eqCase{name: name, t: table.New("eq-"+name, schema, cols, m)})
	}
	return cases
}

// refHistogram is the retained row-at-a-time reference scan.
func refHistogram(t *table.Table, col string, spec BucketSpec, rate float64, seed uint64) *Histogram {
	c := t.MustColumn(col)
	idx, err := spec.Indexer(c)
	if err != nil {
		panic(err)
	}
	h := &Histogram{Buckets: spec, Counts: make([]int64, spec.NumBuckets()), SampleRate: rate}
	visit := func(row int) bool {
		h.SampledRows++
		switch b := idx(row); b {
		case -2:
			h.Missing++
		case -1:
			h.OutOfRange++
		default:
			h.Counts[b]++
		}
		return true
	}
	if rate >= 1 {
		t.Members().Iterate(visit)
	} else {
		t.Members().Sample(rate, PartitionSeed(seed, t.ID()), visit)
	}
	return h
}

func intSpec() BucketSpec    { return NumericBuckets(table.KindInt, 0, 1000, 37) }
func doubleSpec() BucketSpec { return NumericBuckets(table.KindDouble, 50, 900, 23) }

func stringSpec() BucketSpec {
	return StringBucketsFromBounds([]string{"bee", "dog", "gnu", "ibis"}, false)
}

func exactStringSpec() BucketSpec {
	return StringBucketsFromBounds([]string{"ant", "cat", "elk", "hen", "jay"}, true)
}

// eqAxis is one bucketed column under test.
type eqAxis struct {
	col  string
	spec BucketSpec
}

// eqAxes lists every typed axis of eqTables — stored and computed,
// masked and not, the hostile masked columns and the all-missing one —
// each with the bucket geometry of its kind, plus an exact-value string
// axis and a zero-bucket string axis (empty Bounds).
func eqAxes() []eqAxis {
	return []eqAxis{
		{"i", intSpec()}, {"d", doubleSpec()}, {"s", stringSpec()},
		{"im", intSpec()}, {"dm", doubleSpec()}, {"sm", stringSpec()},
		{"ie", intSpec()}, {"ci", intSpec()}, {"cs", stringSpec()},
		{"dx", doubleSpec()}, {"ix", intSpec()}, {"se", stringSpec()},
		{"sm", exactStringSpec()},
		{"s", StringBucketsFromBounds(nil, false)},
	}
}

func TestBatchHistogramEquivalence(t *testing.T) {
	for _, tc := range eqTables(5000) {
		specs := append(eqAxes(),
			eqAxis{"s", exactStringSpec()},
			eqAxis{"se", exactStringSpec()},
			// Degenerate specs: out-of-range-only and single-point range.
			eqAxis{"i", NumericBuckets(table.KindInt, 2000, 3000, 5)},
			eqAxis{"i", NumericBuckets(table.KindInt, 500, 500, 4)},
		)
		for _, sc := range specs {
			name := fmt.Sprintf("%s/%s/%s", tc.name, sc.col, sc.spec)
			sk := &HistogramSketch{Col: sc.col, Buckets: sc.spec}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refHistogram(tc.t, sc.col, sc.spec, 1, 0)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: batch histogram differs from reference\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
}

func TestBatchSampledHistogramEquivalence(t *testing.T) {
	for _, tc := range eqTables(5000) {
		for _, rate := range []float64{0.02, 0.25, 0.8, 1.0, 1.5} {
			for _, seed := range []uint64{1, 99} {
				sk := &SampledHistogramSketch{Col: "dm", Buckets: doubleSpec(), Rate: rate, Seed: seed}
				got, err := sk.Summarize(tc.t)
				if err != nil {
					t.Fatal(err)
				}
				want := refHistogram(tc.t, "dm", doubleSpec(), rate, seed)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s rate=%g seed=%d: sampled batch differs from reference", tc.name, rate, seed)
				}
				// Same seed => identical result on a second run.
				again, err := sk.Summarize(tc.t)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, again) {
					t.Errorf("%s rate=%g seed=%d: sampled sketch not deterministic", tc.name, rate, seed)
				}
			}
		}
	}
}

func TestBatchCDFEquivalence(t *testing.T) {
	for _, tc := range eqTables(3000) {
		for _, rate := range []float64{0, 0.3} {
			sk := &CDFSketch{Col: "im", Buckets: intSpec(), Rate: rate, Seed: 5}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			r := rate
			if r <= 0 {
				r = 1
			}
			want := refHistogram(tc.t, "im", intSpec(), r, 5)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s rate=%g: CDF batch differs from reference", tc.name, rate)
			}
		}
	}
}

// refHistogram2D is the row-at-a-time reference for the 2-D kernel.
func refHistogram2D(t *table.Table, sk *Histogram2DSketch) *Histogram2D {
	xIdx, err := sk.X.Indexer(t.MustColumn(sk.XCol))
	if err != nil {
		panic(err)
	}
	yIdx, err := sk.Y.Indexer(t.MustColumn(sk.YCol))
	if err != nil {
		panic(err)
	}
	h := sk.Zero().(*Histogram2D)
	visit := func(row int) bool {
		h.SampledRows++
		xb := xIdx(row)
		if xb < 0 {
			h.XMissing++
			return true
		}
		if yb := yIdx(row); yb >= 0 {
			h.Counts[xb*h.Y.Count+yb]++
		} else {
			h.YOther[xb]++
		}
		return true
	}
	if h.SampleRate >= 1 {
		t.Members().Iterate(visit)
	} else {
		t.Members().Sample(h.SampleRate, PartitionSeed(sk.Seed, t.ID()), visit)
	}
	return h
}

// TestBatchHist2DEquivalence runs the 2-D kernel over every ordered
// pair of eqAxes, exact and sampled, on every membership shape.
func TestBatchHist2DEquivalence(t *testing.T) {
	axes := eqAxes()
	for _, tc := range eqTables(4000) {
		for _, rate := range []float64{0, 0.3} {
			for _, x := range axes {
				for _, y := range axes {
					sk := &Histogram2DSketch{
						XCol: x.col, YCol: y.col,
						X: x.spec, Y: y.spec,
						Rate: rate, Seed: 11,
					}
					got, err := sk.Summarize(tc.t)
					if err != nil {
						t.Fatal(err)
					}
					if want := refHistogram2D(tc.t, sk); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s×%s rate=%g: hist2d batch differs from reference", tc.name, x.col, y.col, rate)
					}
				}
			}
		}
	}
}

// refMisraGries is the row-at-a-time reference Misra–Gries stream. It
// is the reference for every column that streams: computed columns,
// stored numeric columns and dictionaries above mgDenseDictMax.
func refMisraGries(t *table.Table, col string, k int) *HeavyHitters {
	c := t.MustColumn(col)
	if k < 1 {
		k = 1
	}
	out := &HeavyHitters{K: k, Counters: make(map[table.Value]int64, k+1)}
	t.Members().Iterate(func(row int) bool {
		out.ScannedRows++
		v := c.Value(row)
		if cnt, ok := out.Counters[v]; ok {
			out.Counters[v] = cnt + 1
			return true
		}
		if len(out.Counters) < k {
			out.Counters[v] = 1
			return true
		}
		for u, cnt := range out.Counters {
			if cnt <= 1 {
				delete(out.Counters, u)
			} else {
				out.Counters[u] = cnt - 1
			}
		}
		return true
	})
	return out
}

// refMisraGriesTally is the reference for dictionary columns of at most
// mgDenseDictMax codes: exact counts by table.Value, reduced by the
// sketch's own Merge against Zero.
func refMisraGriesTally(t *testing.T, tbl *table.Table, col string, k int) *HeavyHitters {
	t.Helper()
	c := tbl.MustColumn(col)
	exact := &HeavyHitters{K: k, Counters: map[table.Value]int64{}}
	tbl.Members().Iterate(func(row int) bool {
		exact.ScannedRows++
		exact.Counters[c.Value(row)]++
		return true
	})
	sk := &MisraGriesSketch{Col: col, K: k}
	want, err := sk.Merge(exact, sk.Zero())
	if err != nil {
		t.Fatal(err)
	}
	return want.(*HeavyHitters)
}

// TestBatchMisraGriesEquivalence pins each column to its path's
// reference, across every membership shape: small dictionaries to the
// pruned exact tally, everything else to the stream, bit for bit.
func TestBatchMisraGriesEquivalence(t *testing.T) {
	for _, tc := range eqTables(20000) {
		if n := tc.t.MustColumn("sl").(*table.StringColumn).DictSize(); n <= mgDenseDictMax {
			t.Fatalf("column sl has %d codes; the map path needs more than %d", n, mgDenseDictMax)
		}
		for _, k := range []int{4, 64} {
			for _, col := range []string{"s", "sm"} {
				got, err := (&MisraGriesSketch{Col: col, K: k}).Summarize(tc.t)
				if err != nil {
					t.Fatal(err)
				}
				if want := refMisraGriesTally(t, tc.t, col, k); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s k=%d: tallied Misra-Gries differs from Merge(exact counts, Zero)\n got %+v\nwant %+v", tc.name, col, k, got, want)
				}
			}
			for _, col := range []string{"cs", "im", "dm", "sl"} {
				got, err := (&MisraGriesSketch{Col: col, K: k}).Summarize(tc.t)
				if err != nil {
					t.Fatal(err)
				}
				if want := refMisraGries(tc.t, col, k); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s k=%d: streamed Misra-Gries differs from the row-at-a-time reference", tc.name, col, k)
				}
			}
		}
	}
}

func TestBatchSampleHHEquivalence(t *testing.T) {
	for _, tc := range eqTables(4000) {
		for _, col := range []string{"sm", "im"} {
			sk := &SampleHeavyHittersSketch{Col: col, K: 8, Rate: 0.3, Seed: 21}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			c := tc.t.MustColumn(col)
			want := &HeavyHitters{K: 8, Counters: map[table.Value]int64{}, Sampled: true}
			tc.t.Members().Sample(0.3, PartitionSeed(21, tc.t.ID()), func(row int) bool {
				want.ScannedRows++
				want.Counters[c.Value(row)]++
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: batch sample-HH differs from reference", tc.name, col)
			}
		}
	}
}

// refDataRange is the row-at-a-time reference extrema scan.
func refDataRange(t *table.Table, col string) *DataRange {
	c := t.MustColumn(col)
	out := &DataRange{Kind: c.Kind()}
	if c.Kind().Numeric() {
		t.Members().Iterate(func(row int) bool {
			if c.Missing(row) {
				out.Missing++
				return true
			}
			v := c.Double(row)
			if out.Present == 0 || v < out.Min {
				out.Min = v
			}
			if out.Present == 0 || v > out.Max {
				out.Max = v
			}
			out.Present++
			return true
		})
		return out
	}
	t.Members().Iterate(func(row int) bool {
		if c.Missing(row) {
			out.Missing++
			return true
		}
		v := c.Str(row)
		if out.Present == 0 || v < out.MinS {
			out.MinS = v
		}
		if out.Present == 0 || v > out.MaxS {
			out.MaxS = v
		}
		out.Present++
		return true
	})
	return out
}

func TestBatchRangeEquivalence(t *testing.T) {
	for _, tc := range eqTables(4000) {
		for _, col := range []string{"i", "im", "ie", "d", "dm", "s", "sm", "ci", "cs"} {
			sk := &RangeSketch{Col: col}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			want := refDataRange(tc.t, col)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: batch range differs from reference\n got %+v\nwant %+v", tc.name, col, got, want)
			}
		}
	}
}

// refDistinct is the row-at-a-time reference HLL scan.
func refDistinct(t *table.Table, col string, p uint8) *HLL {
	c := t.MustColumn(col)
	out := &HLL{Precision: p, Registers: make([]byte, 1<<p)}
	kind := c.Kind()
	t.Members().Iterate(func(row int) bool {
		if c.Missing(row) {
			return true
		}
		switch kind {
		case table.KindInt, table.KindDate:
			out.Add(hashValueBits(uint64(c.Int(row))))
		case table.KindDouble:
			out.Add(hashValueBits(math.Float64bits(c.Double(row))))
		default:
			out.Add(hashString(c.Str(row)))
		}
		return true
	})
	return out
}

func TestBatchDistinctEquivalence(t *testing.T) {
	for _, tc := range eqTables(4000) {
		for _, col := range []string{"i", "im", "ie", "d", "dm", "s", "sm", "ci", "cs"} {
			sk := &DistinctCountSketch{Col: col}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			want := refDistinct(tc.t, col, DefaultHLLPrecision)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: batch distinct differs from reference", tc.name, col)
			}
		}
	}
}

// TestBatchIndexerMatchesIndexer pins the kernel to the scalar Indexer
// row by row, axis by axis, including span vs gathered access: every
// slot is the Indexer code plus two.
func TestBatchIndexerMatchesIndexer(t *testing.T) {
	cases := eqTables(2000)
	tc := cases[0]
	for _, sc := range eqAxes() {
		col := tc.t.MustColumn(sc.col)
		idx, err := sc.spec.Indexer(col)
		if err != nil {
			t.Fatal(err)
		}
		bi, err := sc.spec.BatchIndexer(col)
		if err != nil {
			t.Fatal(err)
		}
		n := col.Len()
		spanOut := make([]int32, n)
		bi.IndexSpan(0, n, spanOut)
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		rowsOut := make([]int32, n)
		bi.IndexRows(rows, rowsOut)
		for i := 0; i < n; i++ {
			want := int32(idx(i) + 2)
			if spanOut[i] != want {
				t.Fatalf("%s/%s: IndexSpan row %d = %d, Indexer+2 = %d", sc.col, sc.spec, i, spanOut[i], want)
			}
			if rowsOut[i] != want {
				t.Fatalf("%s/%s: IndexRows row %d = %d, Indexer+2 = %d", sc.col, sc.spec, i, rowsOut[i], want)
			}
		}
	}
}
