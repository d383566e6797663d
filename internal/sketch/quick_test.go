package sketch

import (
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// randomTable builds a table from fuzz inputs: int values with some
// missing, a small-alphabet string column.
func randomTable(id string, ints []int16, miss []bool) *table.Table {
	schema := table.NewSchema(
		table.ColumnDesc{Name: "v", Kind: table.KindInt},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
	)
	b := table.NewBuilder(schema, len(ints))
	for i, x := range ints {
		row := table.Row{table.IntValue(int64(x)), table.StringValue(string(rune('a' + (int(x)%5+5)%5)))}
		if i < len(miss) && miss[i] {
			row[0] = table.MissingValue(table.KindInt)
		}
		b.AppendRow(row)
	}
	return b.Freeze(id)
}

// TestQuickHistogramConservation: for arbitrary data and any split, the
// streaming histogram conserves rows (buckets + missing + out-of-range
// = total) and merging equals the whole.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(ints []int16, miss []bool, splitSeed uint8) bool {
		if len(ints) == 0 {
			return true
		}
		tbl := randomTable("q", ints, miss)
		sk := &HistogramSketch{Col: "v", Buckets: NumericBuckets(table.KindInt, -1000, 1000, 7)}
		whole, err := sk.Summarize(tbl)
		if err != nil {
			return false
		}
		h := whole.(*Histogram)
		if h.TotalCount()+h.Missing+h.OutOfRange != int64(len(ints)) {
			return false
		}
		parts := splitTableQuick(tbl, 1+int(splitSeed)%4)
		acc := sk.Zero()
		for _, p := range parts {
			r, err := sk.Summarize(p)
			if err != nil {
				return false
			}
			if acc, err = sk.Merge(acc, r); err != nil {
				return false
			}
		}
		ha := acc.(*Histogram)
		for i := range h.Counts {
			if h.Counts[i] != ha.Counts[i] {
				return false
			}
		}
		return h.Missing == ha.Missing && h.OutOfRange == ha.OutOfRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNextKMatchesReference: arbitrary data, arbitrary K, the
// bounded ordered-set scan equals brute-force sort-and-dedup.
func TestQuickNextKMatchesReference(t *testing.T) {
	f := func(ints []int16, miss []bool, kRaw uint8) bool {
		if len(ints) == 0 {
			return true
		}
		k := 1 + int(kRaw)%20
		tbl := randomTable("qn", ints, miss)
		sk := &NextKSketch{Order: table.Asc("v"), Extra: []string{"s"}, K: k}
		res, err := sk.Summarize(tbl)
		if err != nil {
			return false
		}
		got := res.(*NextKList)
		// Reference: materialize, sort by (v, s), dedup.
		want := referenceNextKQuick(tbl, sk)
		if len(got.Rows) != len(want.Rows) {
			return false
		}
		for i := range got.Rows {
			if !got.Rows[i].Equal(want.Rows[i]) || got.Counts[i] != want.Counts[i] {
				return false
			}
		}
		return got.Total == want.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMisraGriesNeverOvercounts: stored counts are always lower
// bounds within N/(K+1), on arbitrary data and splits.
func TestQuickMisraGriesNeverOvercounts(t *testing.T) {
	f := func(ints []int16, kRaw uint8) bool {
		if len(ints) == 0 {
			return true
		}
		k := 1 + int(kRaw)%10
		tbl := randomTable("qm", ints, nil)
		truth := map[string]int64{}
		col := tbl.MustColumn("s")
		tbl.Members().Iterate(func(i int) bool {
			truth[col.Value(i).String()]++
			return true
		})
		sk := &MisraGriesSketch{Col: "s", K: k}
		parts := splitTableQuick(tbl, 3)
		acc := sk.Zero()
		for _, p := range parts {
			r, err := sk.Summarize(p)
			if err != nil {
				return false
			}
			if acc, err = sk.Merge(acc, r); err != nil {
				return false
			}
		}
		hh := acc.(*HeavyHitters)
		bound := int64(len(ints))/int64(k+1) + 1
		for v, c := range hh.Counters {
			tc := truth[v.S]
			if c > tc || tc-c > bound {
				return false
			}
		}
		return len(hh.Counters) <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickValueCompareConsistency: Compare is antisymmetric and
// missing sorts first.
func TestQuickValueCompareConsistency(t *testing.T) {
	f := func(a, b int64, am, bm bool) bool {
		va, vb := table.IntValue(a), table.IntValue(b)
		if am {
			va = table.MissingValue(table.KindInt)
		}
		if bm {
			vb = table.MissingValue(table.KindInt)
		}
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		if am && !bm && va.Compare(vb) != -1 {
			return false
		}
		return va.Compare(va) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// splitTableQuick splits deterministically for fuzz inputs.
func splitTableQuick(t *table.Table, k int) []*table.Table {
	rows := t.Rows()
	if k < 1 {
		k = 1
	}
	per := (len(rows) + k - 1) / k
	var parts []*table.Table
	for p := 0; p*per < len(rows); p++ {
		lo, hi := p*per, (p+1)*per
		if hi > len(rows) {
			hi = len(rows)
		}
		b := table.NewBuilder(t.Schema(), hi-lo)
		for _, r := range rows[lo:hi] {
			b.AppendRow(r)
		}
		parts = append(parts, b.Freeze(t.ID()+"-qp"+string(rune('0'+p))))
	}
	return parts
}

func referenceNextKQuick(tbl *table.Table, sk *NextKSketch) *NextKList {
	cols := []int{tbl.Schema().ColumnIndex("v"), tbl.Schema().ColumnIndex("s")}
	var rows []table.Row
	tbl.Members().Iterate(func(i int) bool {
		rows = append(rows, tbl.GetRowCols(i, cols))
		return true
	})
	cmp := sk.rowCmp()
	// Insertion sort (small fuzz inputs).
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && cmp(rows[j], rows[j-1]) < 0; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
	out := &NextKList{Order: sk.Order, K: sk.K, Total: int64(len(rows))}
	for _, r := range rows {
		if n := len(out.Rows); n > 0 && cmp(out.Rows[n-1], r) == 0 {
			out.Counts[n-1]++
			continue
		}
		if len(out.Rows) == sk.K {
			continue
		}
		out.Rows = append(out.Rows, r)
		out.Counts = append(out.Counts, 1)
	}
	return out
}
