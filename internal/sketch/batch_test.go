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
// rowIndexer and Column.Value), which lives here, in the tests, and
// nowhere in production code. Every sketch result must be bit-identical
// across all membership shapes, column kinds, and missing masks, and —
// for sampled sketches — for the same seed.

// eqCase is one (table, membership-shape) configuration under test.
type eqCase struct {
	name string
	t    *table.Table
}

// eqTables builds the test matrix: every column kind (int, double,
// string), with and without
// missing values (incl. a non-nil all-clear mask), crossed with every
// membership shape (full, range, bitmap, sparse, restricted views).
// Column "sl" is a skewed string column whose dictionary outgrows
// mgDenseDictMax once rows reaches about 15000. The batch kernels read
// a masked column unmasked and then patch the missing rows, so three
// columns put hostile cells under a mask with runs of whole words:
// "dx" stores NaN and ±Inf and "ix" MaxInt64 and MinInt64 in its missing
// rows, and "se" is missing everywhere, with an empty dictionary. The
// small-span int columns (intSpans) and "ib"/"ibm", whose values sit on
// both sides of ±2⁵³, exercise the int slot tables.
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
	big := make([]int64, rows)
	for i := 0; i < rows; i++ {
		// 2⁵³ ± 12 and -2⁵³ ± 12: past ±2⁵³ neighbouring ints round to
		// one float64, so an int outside a slot table can land inside its
		// bucket range.
		big[i] = int64(i%25-12) + []int64{1 << 53, -1 << 53}[i/25%2]
		all.Set(i)
		if i%7 != 0 && (i/200)%5 != 0 {
			continue
		}
		runs.Set(i)
		hostileD[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		hostileI[i] = []int64{math.MaxInt64, math.MinInt64}[i%2]
	}

	descs := []table.ColumnDesc{
		{Name: "i", Kind: table.KindInt},
		{Name: "d", Kind: table.KindDouble},
		{Name: "s", Kind: table.KindString},
		{Name: "im", Kind: table.KindInt},
		{Name: "dm", Kind: table.KindDouble},
		{Name: "sm", Kind: table.KindString},
		{Name: "ie", Kind: table.KindInt},
		{Name: "sl", Kind: table.KindString},
		{Name: "dx", Kind: table.KindDouble},
		{Name: "ix", Kind: table.KindInt},
		{Name: "se", Kind: table.KindString},
		{Name: "ib", Kind: table.KindInt},
		{Name: "ibm", Kind: table.KindInt},
	}
	cols := []table.Column{
		table.NewIntColumn(table.KindInt, ints, nil),
		table.NewDoubleColumn(doubles, nil),
		table.NewStringColumn(strs, nil),
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewDoubleColumn(doubles, miss),
		table.NewStringColumn(strs, miss),
		table.NewIntColumn(table.KindInt, ints, emptyMiss),
		table.NewStringColumn(large, miss),
		table.NewDoubleColumn(hostileD, runs),
		table.NewIntColumn(table.KindInt, hostileI, runs),
		table.NewStringColumn(strs, all),
		table.NewIntColumn(table.KindInt, big, nil),
		table.NewIntColumn(table.KindInt, big, runs),
	}
	// Each small-span column holds lo + x mod span, unmasked as "t<span>"
	// and under the runs mask as "t<span>m", which stores values just
	// outside the table and the int64 extremes in its missing rows.
	for _, c := range intSpans {
		vals := make([]int64, rows)
		masked := make([]int64, rows)
		outside := []int64{c.lo - 1, c.lo + c.span, math.MaxInt64, math.MinInt64}
		for i := range vals {
			x := uint64(i+7) * 0xd1342543de82ef95
			vals[i] = c.lo + int64((x^x>>29)%uint64(c.span))
			masked[i] = vals[i]
			if runs.Get(i) {
				masked[i] = outside[i%len(outside)]
			}
		}
		descs = append(descs,
			table.ColumnDesc{Name: c.name, Kind: table.KindInt},
			table.ColumnDesc{Name: c.name + "m", Kind: table.KindInt})
		cols = append(cols,
			table.NewIntColumn(table.KindInt, vals, nil),
			table.NewIntColumn(table.KindInt, masked, runs))
	}
	schema := table.NewSchema(descs...)

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

// rowIndexer is the row-at-a-time reference bucketing of spec over
// col: -2 for a missing row, else the spec's IndexValue (numeric specs)
// or IndexString (string specs) of the row's value, -1 being out of
// range. A BatchIndexer slot is this code plus two.
func rowIndexer(spec BucketSpec, col table.Column) func(row int) int {
	return func(row int) int {
		switch {
		case col.Value(row).Missing:
			return -2
		case spec.Kind == table.KindString:
			return spec.IndexString(col.Value(row).String())
		default:
			return spec.IndexValue(col.Value(row).Double())
		}
	}
}

// refScan visits the rows a scan at rate visits: every member row in
// Iterate order at rate 1, else the Sample(rate, seed) rows of t's
// partition.
func refScan(t *table.Table, rate float64, seed uint64, visit func(row int) bool) {
	if rate >= 1 {
		t.Members().Iterate(visit)
	} else {
		t.Members().Sample(rate, PartitionSeed(seed, t.ID()), visit)
	}
}

// refHistogram is the row-at-a-time reference scan.
func refHistogram(t *table.Table, col string, spec BucketSpec, rate float64, seed uint64) *Histogram {
	idx := rowIndexer(spec, t.MustColumn(col))
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
	refScan(t, rate, seed, visit)
	return h
}

// intSpans are the small-span int columns of eqTables: one bucket range
// of 1, 2, 12 and 7999 integers (the Cancelled, Month and FlightNum
// shapes) and the widest range that gets a slot table and the next one
// up. A span only takes the table on a table of at least
// intTableRowsPerValue·span rows; on intTableRows rows every span up to
// intTableMax does.
var intSpans = []struct {
	name     string
	lo, span int64
	count    int
}{
	{"t1", 7, 1, 4},
	{"t2", 0, 2, 2},
	{"t12", 1, 12, 50},
	{"t7999", 1, 7999, 50},
	{"tmax", -intTableMax / 2, intTableMax, 37},
	{"tmax1", -3, intTableMax + 1, 37},
}

// intTableRows is the smallest table on which every span of intSpans up
// to intTableMax takes the slot table.
const intTableRows = intTableRowsPerValue*intTableMax + 2

// eqIntAxes are the int axes of the slot tables: each small-span column,
// masked and not, over its own range; specs narrower than the data with
// fractional bounds, which leave values outside the table in range of
// the column; and specs with a bound at ±2⁵³ (a table) or past it (the
// divide) over "ib"/"ibm".
func eqIntAxes() []eqAxis {
	var axes []eqAxis
	for _, c := range intSpans {
		spec := NumericBuckets(table.KindInt, float64(c.lo), float64(c.lo+c.span-1), c.count)
		axes = append(axes, eqAxis{c.name, spec}, eqAxis{c.name + "m", spec})
	}
	const p53 = 1 << 53
	return append(axes,
		eqAxis{"t12", NumericBuckets(table.KindInt, 3.5, 9.25, 4)},
		eqAxis{"t12m", NumericBuckets(table.KindInt, 3.5, 9.25, 4)},
		eqAxis{"t7999m", NumericBuckets(table.KindInt, 100.3, 4000.7, 9)},
		eqAxis{"tmaxm", NumericBuckets(table.KindInt, -1000.5, 20000.25, 13)},
		eqAxis{"ib", NumericBuckets(table.KindInt, p53-10, p53, 5)},
		eqAxis{"ibm", NumericBuckets(table.KindInt, -p53, -p53+10, 5)},
		eqAxis{"ib", NumericBuckets(table.KindInt, p53-10, p53+4, 5)},
		eqAxis{"ibm", NumericBuckets(table.KindInt, -p53-4, -p53+10, 5)},
	)
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

// eqAxes lists every typed axis of eqTables — masked and not, the hostile masked columns and the all-missing one —
// each with the bucket geometry of its kind, plus an exact-value string
// axis and a zero-bucket string axis (empty Bounds). The int slot-table
// axes are separate (eqIntAxes).
func eqAxes() []eqAxis {
	return []eqAxis{
		{"i", intSpec()}, {"d", doubleSpec()}, {"s", stringSpec()},
		{"im", intSpec()}, {"dm", doubleSpec()}, {"sm", stringSpec()},
		{"ie", intSpec()},
		{"dx", doubleSpec()}, {"ix", intSpec()}, {"se", stringSpec()},
		{"sm", exactStringSpec()},
		{"s", StringBucketsFromBounds(nil, false)},
	}
}

// TestBatchHistogramEquivalence holds the exact and the sampled
// histogram to the reference on every axis and membership shape, and the
// int slot-table axes also on a table of intTableRows rows, where every
// span up to intTableMax takes the table.
func TestBatchHistogramEquivalence(t *testing.T) {
	specs := append(eqAxes(),
		eqAxis{"s", exactStringSpec()},
		eqAxis{"se", exactStringSpec()},
		// Degenerate specs: out-of-range-only and single-point range.
		eqAxis{"i", NumericBuckets(table.KindInt, 2000, 3000, 5)},
		eqAxis{"i", NumericBuckets(table.KindInt, 500, 500, 4)},
	)
	specs = append(specs, eqIntAxes()...)
	check := func(tc eqCase, sc eqAxis) {
		for _, rate := range []float64{1, 0.3} {
			name := fmt.Sprintf("%s/%s/%s/rate=%g", tc.name, sc.col, sc.spec, rate)
			var sk Sketch = &HistogramSketch{Col: sc.col, Buckets: sc.spec}
			if rate < 1 {
				sk = &HistogramSketch{Col: sc.col, Buckets: sc.spec, Rate: rate, Seed: 7}
			}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := refHistogram(tc.t, sc.col, sc.spec, rate, 7)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: batch histogram differs from reference\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
	for _, tc := range eqTables(5000) {
		for _, sc := range specs {
			check(tc, sc)
		}
	}
	for _, tc := range eqTables(intTableRows) {
		for _, sc := range eqIntAxes() {
			check(tc, sc)
		}
	}
}

func TestBatchSampledHistogramEquivalence(t *testing.T) {
	for _, tc := range eqTables(5000) {
		for _, rate := range []float64{0.02, 0.25, 0.8, 1.0, 1.5} {
			for _, seed := range []uint64{1, 99} {
				sk := &HistogramSketch{Col: "dm", Buckets: doubleSpec(), Rate: rate, Seed: seed}
				got, err := sk.Summarize(tc.t)
				if err != nil {
					t.Fatal(err)
				}
				want := refHistogram(tc.t, "dm", doubleSpec(), min(rate, 1), seed)
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

// TestBatchCDFEquivalence: the histogram behind a CDF plot has one
// bucket per horizontal pixel, exact (Rate 0) or sampled.
func TestBatchCDFEquivalence(t *testing.T) {
	pixels := NumericBuckets(table.KindInt, 0, 1000, 200)
	for _, tc := range eqTables(3000) {
		for _, rate := range []float64{0, 0.3} {
			sk := &HistogramSketch{Col: "im", Buckets: pixels, Rate: rate, Seed: 5}
			got, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			r := rate
			if r <= 0 {
				r = 1
			}
			want := refHistogram(tc.t, "im", pixels, r, 5)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s rate=%g: CDF batch differs from reference", tc.name, rate)
			}
		}
	}
}

// refHistogram2D is the row-at-a-time reference for the 2-D kernel.
func refHistogram2D(t *table.Table, sk *Histogram2DSketch) *Histogram2D {
	h := sk.Zero().(*Histogram2D)
	count := ref2DCount(t, sk.XCol, sk.YCol, sk.X, sk.Y)
	refScan(t, h.SampleRate, sk.Seed, func(row int) bool {
		count(h, row)
		return true
	})
	return h
}

// ref2DCount returns the reference tally of one row into a 2-D
// histogram over xcol × ycol bucketed by x and y.
func ref2DCount(t *table.Table, xcol, ycol string, x, y BucketSpec) func(h *Histogram2D, row int) {
	xIdx, yIdx := rowIndexer(x, t.MustColumn(xcol)), rowIndexer(y, t.MustColumn(ycol))
	return func(h *Histogram2D, row int) {
		h.SampledRows++
		xb := xIdx(row)
		if xb < 0 {
			h.XMissing++
			return
		}
		if yb := yIdx(row); yb >= 0 {
			h.Counts[xb*h.Y.Count+yb]++
		} else {
			h.YOther[xb]++
		}
	}
}

// refTrellis is the row-at-a-time reference for the trellis: every
// visited row counts in the trellis, and then, unless its group is
// missing or out of range, in its group's plot as refHistogram2D counts
// it.
func refTrellis(t *table.Table, sk *TrellisSketch) *Trellis {
	tr := sk.Zero().(*Trellis)
	gIdx := rowIndexer(sk.Group, t.MustColumn(sk.GroupCol))
	count := ref2DCount(t, sk.XCol, sk.YCol, sk.X, sk.Y)
	refScan(t, tr.SampleRate, sk.Seed, func(row int) bool {
		tr.SampledRows++
		if gb := gIdx(row); gb < 0 {
			tr.GroupOther++
		} else {
			count(tr.Plots[gb], row)
		}
		return true
	})
	return tr
}

// TestBatchHist2DEquivalence runs the 2-D kernel over every ordered
// pair of eqAxes, exact and sampled, on every membership shape, and
// over each int slot-table axis paired both ways with a double, a
// string, a masked int slot-table and a hostile int axis. On a table of
// intTableRows rows the wide-span int axes, where the table applies
// only there, pair with a masked int slot-table axis.
func TestBatchHist2DEquivalence(t *testing.T) {
	axes := eqAxes()
	intAxes := eqIntAxes()
	var pairs [][2]eqAxis
	for _, x := range axes {
		for _, y := range axes {
			pairs = append(pairs, [2]eqAxis{x, y})
		}
	}
	t12m := eqAxis{"t12m", NumericBuckets(table.KindInt, 1, 12, 50)}
	partners := []eqAxis{{"dm", doubleSpec()}, {"sm", stringSpec()}, t12m, {"ix", intSpec()}}
	wideCols := map[string]bool{"t7999": true, "t7999m": true, "tmax": true, "tmaxm": true, "tmax1": true, "tmax1m": true}
	var wide [][2]eqAxis
	for _, a := range intAxes {
		for _, b := range partners {
			pairs = append(pairs, [2]eqAxis{a, b}, [2]eqAxis{b, a})
		}
		if wideCols[a.col] {
			wide = append(wide, [2]eqAxis{a, t12m}, [2]eqAxis{t12m, a})
		}
	}
	check := func(tc eqCase, pairs [][2]eqAxis) {
		for _, rate := range []float64{0, 0.3} {
			for _, p := range pairs {
				x, y := p[0], p[1]
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
					t.Errorf("%s %s %s×%s %s rate=%g: hist2d batch differs from reference", tc.name, x.col, x.spec, y.col, y.spec, rate)
				}
			}
		}
	}
	for _, tc := range eqTables(4000) {
		check(tc, pairs)
	}
	for _, tc := range eqTables(intTableRows) {
		check(tc, wide)
	}
}

// TestTrellisMatchesReference holds the trellis to refTrellis on every
// membership shape, bare and under WithCancel, exact and sampled. The
// group axes are a dictionary (with a missing mask and a bound below
// every value, so rows fall outside every group), an exact-value
// dictionary and a masked int slot-table axis; the plots pair a double
// with a masked dictionary, a masked int with a hostile double, and a
// string with itself.
func TestTrellisMatchesReference(t *testing.T) {
	groups := []eqAxis{
		{"sm", stringSpec()}, {"s", exactStringSpec()},
		{"t12m", NumericBuckets(table.KindInt, 1, 12, 5)},
	}
	plots := [][2]eqAxis{
		{{"d", doubleSpec()}, {"sm", stringSpec()}},
		{{"im", intSpec()}, {"dx", doubleSpec()}},
		{{"s", exactStringSpec()}, {"s", stringSpec()}},
	}
	for _, tc := range eqTables(3000) {
		views := map[string]*table.Table{tc.name: tc.t, tc.name + "/cancel": tc.t.WithCancel(func() bool { return false })}
		for name, tbl := range views {
			for _, rate := range []float64{1, 0.3} {
				for _, g := range groups {
					for _, p := range plots {
						sk := &TrellisSketch{
							GroupCol: g.col, XCol: p[0].col, YCol: p[1].col,
							Group: g.spec, X: p[0].spec, Y: p[1].spec,
							Rate: rate, Seed: 13,
						}
						got, err := sk.Summarize(tbl)
						if err != nil {
							t.Fatal(err)
						}
						if want := refTrellis(tbl, sk); !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s: trellis differs from reference\n got %+v\nwant %+v", name, sk.Name(), got, want)
						}
					}
				}
			}
		}
	}
}

// refMisraGries is the row-at-a-time reference Misra–Gries stream. It
// is the reference for every column that streams: numeric columns and
// dictionaries above mgDenseDictMax.
func refMisraGries(t *table.Table, col string, k int) *HeavyHitters {
	c := t.MustColumn(col)
	if k < 1 {
		k = 1
	}
	out := &HeavyHitters{K: k, Counters: make(map[table.Value]int64, k+1)}
	t.Members().Iterate(func(row int) bool {
		out.ScannedRows++
		v := plusZero(c.Value(row))
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

// plusZero spells a zero double +0, as both heavy-hitter sketches key
// it: a Value-keyed map keeps the sign of the last zero it counted.
func plusZero(v table.Value) table.Value {
	if v.Kind == table.KindDouble && v.D == 0 {
		v.D = 0
	}
	return v
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
			for _, col := range []string{"im", "dm", "sl"} {
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

// TestBatchSampleHHEquivalence pins the typed sample-HH tallies to the
// table.Value scan over every column and membership shape, sampled and
// at rate 1.
func TestBatchSampleHHEquivalence(t *testing.T) {
	for _, tc := range eqTables(4000) {
		for _, col := range tc.t.Schema().Names() {
			for _, rate := range []float64{0.3, 1} {
				checkSampleHH(t, tc.name, tc.t, col, rate)
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
			if c.Value(row).Missing {
				out.Missing++
				return true
			}
			v := c.Value(row).Double()
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
		if c.Value(row).Missing {
			out.Missing++
			return true
		}
		v := c.Value(row).String()
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
		for _, col := range []string{"i", "im", "ie", "d", "dm", "s", "sm"} {
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
		if c.Value(row).Missing {
			return true
		}
		switch kind {
		case table.KindInt, table.KindDate:
			out.Add(hashValueBits(uint64(c.Value(row).I)))
		case table.KindDouble:
			out.Add(hashValueBits(math.Float64bits(c.Value(row).Double())))
		default:
			out.Add(hashString(c.Value(row).String()))
		}
		return true
	})
	return out
}

func TestBatchDistinctEquivalence(t *testing.T) {
	for _, tc := range eqTables(4000) {
		for _, col := range []string{"i", "im", "ie", "d", "dm", "s", "sm"} {
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

// TestBatchIndexerMatchesIndexer pins the kernel to the reference
// rowIndexer row by row, axis by axis: every slot is the rowIndexer
// code plus two. On every membership shape, IndexSpan runs over each
// member span and IndexRows over the gathered member rows, and CountSpan
// and CountRows over the same batches, and CountWords over the member
// words of a bitmap, must tally what the rowIndexer tallies. The int
// slot-table axes run at a size where every span up to intTableMax
// takes the table.
func TestBatchIndexerMatchesIndexer(t *testing.T) {
	check := func(tc eqCase, sc eqAxis) {
		col := tc.t.MustColumn(sc.col)
		idx := rowIndexer(sc.spec, col)
		bi, err := sc.spec.BatchIndexer(col)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s/%s/%s", tc.name, sc.col, sc.spec)
		m := tc.t.Members()
		want := make([]int64, sc.spec.NumBuckets()+2)
		out := make([]int32, kernelBatch)
		spanTally := make([]int64, len(want))
		rowsTally := make([]int64, len(want))
		m.IterateSpans(func(start, end int) bool {
			for a := start; a < end; a += kernelBatch {
				b := min(a+kernelBatch, end)
				bi.IndexSpan(a, b, out[:b-a])
				for k, got := range out[:b-a] {
					w := idx(a+k) + 2
					if got != int32(w) {
						t.Fatalf("%s: IndexSpan row %d = %d, rowIndexer+2 = %d", name, a+k, got, w)
					}
					want[w]++
				}
				bi.CountSpan(a, b, spanTally)
			}
			return true
		})
		rows := make([]int32, kernelBatch)
		for from := 0; ; {
			n, next := m.FillBatch(rows, from)
			if n == 0 {
				break
			}
			bi.IndexRows(rows[:n], out[:n])
			for k, r := range rows[:n] {
				if w := int32(idx(int(r)) + 2); out[k] != w {
					t.Fatalf("%s: IndexRows row %d = %d, rowIndexer+2 = %d", name, r, out[k], w)
				}
			}
			bi.CountRows(rows[:n], rowsTally)
			from = next
		}
		if !reflect.DeepEqual(spanTally, want) || !reflect.DeepEqual(rowsTally, want) {
			t.Fatalf("%s: CountSpan %v, CountRows %v, rowIndexer tallies %v", name, spanTally, rowsTally, want)
		}
		wordsTally := make([]int64, len(want))
		if table.IterateWords(m, func(wi int, words []uint64) bool {
			bi.CountWords(wi<<6, words, wordsTally)
			return true
		}) && !reflect.DeepEqual(wordsTally, want) {
			t.Fatalf("%s: CountWords %v, rowIndexer tallies %v", name, wordsTally, want)
		}
	}
	for _, tc := range eqTables(2000) {
		for _, sc := range append(eqAxes(), eqIntAxes()...) {
			check(tc, sc)
		}
	}
	for _, tc := range eqTables(intTableRows) {
		for _, sc := range eqIntAxes() {
			check(tc, sc)
		}
	}
}

// TestIntSlotTableApplies pins which int axes get a slot table, so a
// regression to the divide cannot hide behind equal answers: a range of
// 1 to intTableMax integers, with intTableRowsPerValue rows of the column
// per integer, both bounds within ±2⁵³ and a positive count.
func TestIntSlotTableApplies(t *testing.T) {
	const p53 = 1 << 53
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		min, max float64
		count    int
		n        int
		table    bool
	}{
		{7, 7, 4, 4, true},
		{7, 7, 4, 3, false},
		{0, 1, 2, 10, true},
		{1, 12, 50, 48, true},
		{0.5, 12.5, 50, 48, true},
		{1, 7999, 50, 1 << 20, true},
		{0, intTableMax - 1, 50, intTableRowsPerValue * intTableMax, true},
		{0, intTableMax, 50, 1 << 20, false},
		{1, 12, 50, 47, false},
		{p53 - 10, p53, 5, 100, true},
		{-p53, -p53 + 10, 5, 100, true},
		{p53 - 10, p53 + 2, 5, 100, false},
		{-p53 - 2, -p53 + 10, 5, 100, false},
		{0.2, 0.8, 3, 100, false},
		{5, 1, 3, 100, false},
		{1, 12, 0, 100, false},
		{nan, 12, 3, 100, false},
		{1, inf, 3, 100, false},
	} {
		spec := BucketSpec{Kind: table.KindInt, Min: c.min, Max: c.max, Count: c.count}
		bi, err := spec.BatchIndexer(table.NewIntColumn(table.KindInt, make([]int64, c.n), nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := bi.(*intTableBatchIndexer); ok != c.table {
			t.Errorf("spec %s over %d rows: slot table %v, want %v", spec, c.n, ok, c.table)
		}
	}
}
