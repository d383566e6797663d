package sketch

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/table"
)

// rangeShapes are the memberships the extrema kernel is checked over, on
// n rows (n not a multiple of 64): full; a range and a bitmap with
// partial first and last words; a bitmap with member-less words and one
// with full words; a sparse list and a one-row list; and an empty
// range, bitmap and list.
func rangeShapes(n int) map[string]table.Membership {
	bits, dense := table.NewBitset(n), table.NewBitset(n)
	var sparse []int32
	for i := 37; i < n-29; i++ {
		x := uint64(i) * 0x9e3779b97f4a7c15
		if i>>6 != 5 && i>>6 != 6 && (x^x>>29)%7 != 0 {
			bits.Set(i)
		}
		if i%300 != 0 {
			dense.Set(i)
		}
		if i%17 == 11 {
			sparse = append(sparse, int32(i))
		}
	}
	return map[string]table.Membership{
		"full":          table.FullMembership(n),
		"range":         table.NewRangeMembership(37, n-29, n),
		"bitmap":        table.NewBitmapMembership(bits),
		"bitmap/dense":  table.NewBitmapMembership(dense),
		"sparse":        table.NewSparseMembership(sparse, n),
		"empty/range":   table.NewRangeMembership(100, 100, n),
		"empty/bitmap":  table.NewBitmapMembership(table.NewBitset(n)),
		"empty/sparse":  table.NewSparseMembership(nil, n),
		"sparse/single": table.NewSparseMembership([]int32{int32(n - 1)}, n),
	}
}

// rangeOracleTable builds the columns of TestRangeKernelOracle for one
// membership. Every masked column is missing on words 2 and 3 whole and
// on every 7th row. "dn" holds NaN at the membership's first present row
// and stray NaNs and ±Inf elsewhere; "dz" holds only -0 and +0, so its
// extrema are the sign of its first present row, and "du" is "dz"
// unmasked, whose member words are read whole; "dv" is unmasked with a
// NaN at row 0; "i" holds the int64 extremes; "s" is a dictionary
// column, "se" a dictionary column missing everywhere.
func rangeOracleTable(n int, m table.Membership) *table.Table {
	miss, all := table.NewBitset(n), table.NewBitset(n)
	for i := 0; i < n; i++ {
		all.Set(i)
		if i>>6 == 2 || i>>6 == 3 || i%7 == 3 {
			miss.Set(i)
		}
	}
	dn, dz, dv := make([]float64, n), make([]float64, n), make([]float64, n)
	ints, strs := make([]int64, n), make([]string, n)
	words := []string{"kiwi", "apple", "fig", "date", "lime"}
	for i := 0; i < n; i++ {
		x := uint64(i+1) * 0xbf58476d1ce4e5b9
		x ^= x >> 31
		dn[i] = float64(x%2000)/10 - 100
		switch i % 97 {
		case 40:
			dn[i] = math.NaN()
		case 41:
			dn[i] = math.Inf(1)
		case 42:
			dn[i] = math.Inf(-1)
		}
		dz[i] = math.Copysign(0, float64(int(x%2)*2-1))
		dv[i] = float64(x%1000) - 500
		ints[i] = int64(x%100000) - 50000
		strs[i] = words[x%uint64(len(words))]
	}
	dv[0] = math.NaN()
	ints[n/2], ints[n/2+1] = math.MaxInt64, math.MinInt64
	m.Iterate(func(i int) bool {
		if miss.Get(i) {
			return true
		}
		dn[i] = math.NaN()
		return false
	})
	schema := table.NewSchema(
		table.ColumnDesc{Name: "dn", Kind: table.KindDouble},
		table.ColumnDesc{Name: "dz", Kind: table.KindDouble},
		table.ColumnDesc{Name: "du", Kind: table.KindDouble},
		table.ColumnDesc{Name: "dv", Kind: table.KindDouble},
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "se", Kind: table.KindString},
	)
	cols := []table.Column{
		table.NewDoubleColumn(dn, miss),
		table.NewDoubleColumn(dz, miss),
		table.NewDoubleColumn(dz, nil),
		table.NewDoubleColumn(dv, nil),
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewStringColumn(strs, miss),
		table.NewStringColumn(strs, all),
	}
	return table.New("range-oracle", schema, cols, m)
}

// TestRangeKernelOracle holds the extrema kernel to the row-at-a-time
// path (refDataRange: Iterate with Missing, Double and Str) on every
// membership shape, bare and under a cancellation wrapper whose probe
// never fires, comparing bounds with math.Float64bits: a NaN first
// value must stay the bound, and of -0 and +0 the first present wins.
func TestRangeKernelOracle(t *testing.T) {
	const n = 64*40 + 23
	for name, m := range rangeShapes(n) {
		tbl := rangeOracleTable(n, m)
		views := map[string]*table.Table{name: tbl, name + "/cancel": tbl.WithCancel(func() bool { return false })}
		for vname, v := range views {
			for _, col := range []string{"dn", "dz", "du", "dv", "i", "s", "se"} {
				res, err := (&RangeSketch{Col: col}).Summarize(v)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := rangeBits(res.(*DataRange)), rangeBits(refDataRange(v, col)); got != want {
					t.Errorf("%s/%s: kernel %s, row path %s", vname, col, got, want)
				}
			}
		}
	}
}

// rangeBits renders a DataRange with its float bounds as bit patterns.
func rangeBits(r *DataRange) string {
	return fmt.Sprintf("kind=%v present=%d missing=%d min=%#x max=%#x minS=%q maxS=%q",
		r.Kind, r.Present, r.Missing, math.Float64bits(r.Min), math.Float64bits(r.Max), r.MinS, r.MaxS)
}

// TestWordScanStopsOnCancel pins the word path's polling: over a bitmap
// membership of 16 poll windows, a range scan and an exact histogram
// scan whose probe fires after its first poll stop within one window
// (table's cancelPollRows, 2¹⁶ rows), with the truncated counts the
// cancellation contract allows.
func TestWordScanStopsOnCancel(t *testing.T) {
	const window, n = 1 << 16, 16 << 16
	vals := make([]float64, n)
	bits := table.NewBitset(n)
	for i := range vals {
		vals[i] = float64(i % 1000)
		if i%5 != 0 {
			bits.Set(i)
		}
	}
	schema := table.NewSchema(table.ColumnDesc{Name: "x", Kind: table.KindDouble})
	base := table.New("cancel-words", schema, []table.Column{table.NewDoubleColumn(vals, nil)}, table.NewBitmapMembership(bits))
	polled := func() *table.Table {
		polls := 0
		return base.WithCancel(func() bool { polls++; return polls > 1 })
	}
	r, err := (&RangeSketch{Col: "x"}).Summarize(polled())
	if err != nil {
		t.Fatal(err)
	}
	if rows := r.(*DataRange).Present; rows == 0 || rows > window {
		t.Errorf("range scan visited %d of %d rows after the probe fired, want 1 to %d", rows, base.NumRows(), window)
	}
	h, err := (&HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 999, 10)}).Summarize(polled())
	if err != nil {
		t.Fatal(err)
	}
	if rows := h.(*Histogram).SampledRows; rows == 0 || rows > window {
		t.Errorf("histogram scan visited %d of %d rows after the probe fired, want 1 to %d", rows, base.NumRows(), window)
	}
}
