package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/table"
	"repro/internal/wire"
)

// referenceNextK computes the expected NextKList by brute force: sort
// all materialized rows, skip past From, dedup with counts, take K.
func referenceNextK(t *testing.T, tbl *table.Table, sk *NextKSketch) *NextKList {
	t.Helper()
	cols := make([]int, 0)
	for _, o := range sk.Order {
		cols = append(cols, tbl.Schema().ColumnIndex(o.Column))
	}
	for _, e := range sk.Extra {
		cols = append(cols, tbl.Schema().ColumnIndex(e))
	}
	var rows []table.Row
	tbl.Members().Iterate(func(i int) bool {
		rows = append(rows, tbl.GetRowCols(i, cols))
		return true
	})
	cmp := sk.rowCmp()
	keyCmp := sk.Order.RowComparator()
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })

	out := &NextKList{Order: sk.Order, K: sk.K, Total: int64(len(rows))}
	for _, r := range rows {
		if sk.From != nil && keyCmp(r[:len(sk.Order)], sk.From) <= 0 {
			out.Before++
			continue
		}
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

func assertNextKEqual(t *testing.T, got, want *NextKList) {
	t.Helper()
	if got.Before != want.Before || got.Total != want.Total {
		t.Fatalf("Before/Total = %d/%d, want %d/%d", got.Before, got.Total, want.Before, want.Total)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("got %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !got.Rows[i].Equal(want.Rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got.Rows[i], want.Rows[i])
		}
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("count %d = %d, want %d", i, got.Counts[i], want.Counts[i])
		}
	}
}

// boxedNextK is the exact oracle of the pruned scan: every member row
// boxed and inserted into the bounded window. Unlike referenceNextK's
// sort it needs no total order, so it also holds on tieTable's NaN.
func boxedNextK(t *testing.T, sk *NextKSketch, tbl *table.Table) *NextKList {
	t.Helper()
	cols, err := rowColumns("nextk", tbl.Schema(), sk.Order, sk.Extra)
	if err != nil {
		t.Fatal(err)
	}
	keyCmp, cmp := sk.Order.RowComparator(), sk.rowCmp()
	out := sk.Zero().(*NextKList)
	tbl.Members().Iterate(func(row int) bool {
		out.Total++
		r := tbl.GetRowCols(row, cols)
		if len(sk.From) > 0 && keyCmp(r[:len(sk.Order)], sk.From) <= 0 {
			out.Before++
			return true
		}
		i := sort.Search(len(out.Rows), func(i int) bool { return cmp(out.Rows[i], r) >= 0 })
		switch {
		case i < len(out.Rows) && cmp(out.Rows[i], r) == 0:
			out.Counts[i]++
		case i < sk.K:
			out.Rows = slices.Insert(out.Rows, i, r)
			out.Counts = slices.Insert(out.Counts, i, 1)
			if len(out.Rows) > sk.K {
				out.Rows, out.Counts = out.Rows[:sk.K], out.Counts[:sk.K]
			}
		}
		return true
	})
	return out
}

// boxedFold is the boxed oracle over chunks: boxedNextK per chunk, then
// the sequential Merge.
func boxedFold(t *testing.T, sk *NextKSketch, chunks []*table.Table) Result {
	t.Helper()
	sums := make([]Result, len(chunks))
	for i, c := range chunks {
		sums[i] = boxedNextK(t, sk, c)
	}
	out, err := MergeAll(sk, sums...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNextKAgainstReference(t *testing.T) {
	tbl := genTable("nk", 3000, 31)
	cases := []*NextKSketch{
		{Order: table.Asc("x"), Extra: []string{"id"}, K: 10},
		{Order: table.Desc("x"), Extra: []string{"cat"}, K: 25},
		{Order: table.Asc("cat").Then("x", true), K: 15},
		{Order: table.Asc("cat"), K: 5}, // heavy dedup: few categories
	}
	for _, sk := range cases {
		t.Run(sk.Name(), func(t *testing.T) {
			got, err := sk.Summarize(tbl)
			if err != nil {
				t.Fatal(err)
			}
			assertNextKEqual(t, got.(*NextKList), referenceNextK(t, tbl, sk))
		})
	}
}

func TestNextKDedupCounts(t *testing.T) {
	// A column with exactly 3 distinct values: counts must cover all rows.
	schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt})
	b := table.NewBuilder(schema, 30)
	for i := 0; i < 30; i++ {
		b.AppendRow(table.Row{table.IntValue(int64(i % 3))})
	}
	tbl := b.Freeze("dedup")
	sk := &NextKSketch{Order: table.Asc("v"), K: 10}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	l := res.(*NextKList)
	if len(l.Rows) != 3 {
		t.Fatalf("distinct rows = %d, want 3", len(l.Rows))
	}
	for i, c := range l.Counts {
		if c != 10 {
			t.Errorf("count[%d] = %d, want 10", i, c)
		}
	}
}

func TestNextKFrom(t *testing.T) {
	tbl := genTable("nkf", 2000, 32)
	// Page 1.
	sk1 := &NextKSketch{Order: table.Asc("x"), Extra: []string{"id"}, K: 20}
	res1, err := sk1.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	page1 := res1.(*NextKList)
	// Page 2 starts after the last row of page 1 (order-columns prefix).
	last := page1.Rows[len(page1.Rows)-1]
	from := last[:1].Clone()
	sk2 := &NextKSketch{Order: table.Asc("x"), Extra: []string{"id"}, K: 20, From: from}
	res2, err := sk2.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	page2 := res2.(*NextKList)
	assertNextKEqual(t, page2, referenceNextK(t, tbl, sk2))
	// Pages must not overlap: every page-2 key > every page-1 key.
	cmp := sk1.Order.RowComparator()
	if cmp(page2.Rows[0][:1], page1.Rows[len(page1.Rows)-1][:1]) <= 0 {
		t.Error("page 2 overlaps page 1")
	}
	if page2.Before == 0 {
		t.Error("page 2 should count rows before the cursor")
	}
}

func TestNextKExactMergeability(t *testing.T) {
	tbl := genTable("nkm", 2500, 33)
	sk := &NextKSketch{Order: table.Asc("cat").Then("x", false), Extra: []string{"id"}, K: 12}
	checkExactMergeability(t, sk, tbl, 7)
	parts := summarizeParts(t, sk, splitTable(tbl, 7))
	checkMergeInvariance(t, sk, parts)
}

func TestNextKMissingColumn(t *testing.T) {
	tbl := genTable("nke", 10, 34)
	if _, err := (&NextKSketch{Order: table.Asc("zzz"), K: 5}).Summarize(tbl); err == nil {
		t.Error("unknown order column should error")
	}
	if _, err := (&NextKSketch{Order: table.Asc("x"), Extra: []string{"zzz"}, K: 5}).Summarize(tbl); err == nil {
		t.Error("unknown extra column should error")
	}
}

func TestNextKMissingValuesSortFirst(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt})
	b := table.NewBuilder(schema, 4)
	b.AppendRow(table.Row{table.IntValue(5)})
	b.AppendRow(table.Row{table.MissingValue(table.KindInt)})
	b.AppendRow(table.Row{table.IntValue(1)})
	b.AppendRow(table.Row{table.MissingValue(table.KindInt)})
	tbl := b.Freeze("miss")
	res, err := (&NextKSketch{Order: table.Asc("v"), K: 4}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	l := res.(*NextKList)
	if !l.Rows[0][0].Missing || l.Counts[0] != 2 {
		t.Errorf("missing rows should lead ascending order with count 2: %+v", l)
	}
}

// nextKCases are the sketch shapes of the accumulator's test matrix
// over a table.GenPartitions table: ascending and descending, one- and
// five-column orders, every lead kind (int, double, date, string, and
// the double column gc), cursors that are
// present in the data (so they tie), absent, mixed int/double, missing,
// and a window larger than the table has distinct rows.
func nextKCases(parts []*table.Table, info table.GenInfo) []*NextKSketch {
	five := table.Asc("gi").Then("gs", false).Then("gd", true).Then("gt", false).Then("gc", true)
	midInt := info.IntLo + (info.IntHi-info.IntLo)/2
	midStr := info.DictValues[len(info.DictValues)/2]
	cases := []*NextKSketch{
		{Order: table.Asc("gi"), Extra: []string{"gs"}, K: 20},
		{Order: table.Desc("gi"), K: 20},
		{Order: table.Asc("gd"), Extra: []string{"gs", "gi"}, K: 7},
		{Order: table.Desc("gd"), K: 7},
		{Order: table.Asc("gs"), Extra: []string{"gd"}, K: 15},
		{Order: table.Desc("gs"), Extra: []string{"gi"}, K: 15},
		{Order: table.Asc("gt"), K: 5},
		{Order: table.Asc("gc"), Extra: []string{"gi"}, K: 9},
		{Order: five, K: 25},
		{Order: five.Reversed(), K: 25},
		{Order: table.Asc("gs").Then("gi", true), K: 100000}, // K beyond the distinct rows
		{Order: table.Asc("gi"), K: 0},
		{Order: nil, Extra: []string{"gs"}, K: 4},
		// Cursors.
		{Order: table.Asc("gi"), Extra: []string{"gs"}, K: 20, From: table.Row{table.IntValue(midInt)}},
		{Order: table.Desc("gi"), K: 20, From: table.Row{table.IntValue(midInt)}},
		{Order: table.Asc("gi"), K: 20, From: table.Row{table.DoubleValue(float64(midInt))}},        // int column, double cursor that ties
		{Order: table.Desc("gi"), K: 20, From: table.Row{table.DoubleValue(float64(midInt) + 0.5)}}, // and one that falls between
		{Order: table.Asc("gd"), K: 8, From: table.Row{table.IntValue(int64(info.DoubleLo) + 1)}},   // double column, int cursor
		{Order: table.Asc("gs"), Extra: []string{"gi"}, K: 10, From: table.Row{table.StringValue(midStr)}},
		{Order: table.Desc("gs"), K: 10, From: table.Row{table.StringValue(midStr + "x")}}, // absent from every dictionary
		{Order: table.Asc("gi"), K: 10, From: table.Row{table.MissingValue(table.KindInt)}},
		{Order: table.Desc("gd"), K: 10, From: table.Row{table.MissingValue(table.KindDouble)}},
		{Order: table.Asc("gi").Then("gs", true), K: 12, From: table.Row{table.IntValue(midInt), table.StringValue(midStr)}},
		// Ties: a lead whose K-th key is missing where gi is often
		// missing, and a string tie-break whose dictionary differs
		// from partition to partition; a descending level after an
		// ascending tie; a double column in tie-break position.
		{Order: table.Asc("gi"), Extra: []string{"gs", "gt"}, K: 20},
		{Order: table.Asc("gs").Then("gi", false), Extra: []string{"gd"}, K: 20},
		{Order: table.Asc("gi").Then("gc", true), Extra: []string{"gs"}, K: 20},
	}
	// Multi-column cursors taken from the data: the last row of a first
	// page, so the second page starts mid-tie on the lead — on the order
	// columns alone, and on the whole row with the extra columns folded
	// into the order, as View.NextPage pages.
	folded := table.Asc("gi").Then("gs", true).Then("gt", true)
	for _, order := range []table.RecordOrder{five, folded} {
		first := &NextKSketch{Order: order, K: 3}
		var page Result = first.Zero()
		for _, p := range parts {
			r, err := first.Summarize(p)
			if err != nil {
				panic(err)
			}
			if page, err = first.Merge(page, r); err != nil {
				panic(err)
			}
		}
		if rows := page.(*NextKList).Rows; len(rows) > 0 {
			cases = append(cases, &NextKSketch{Order: order, K: 25, From: rows[len(rows)-1][:len(order)]})
		}
	}
	return cases
}

// foldAccumulators deals chunks round-robin to p workers and combines
// their results with the merge tree. With chain set a worker retires its
// accumulator after every chunk and folds the next chunk into its Next,
// as the engine's workers do between partitions.
func foldAccumulators(t *testing.T, sk *NextKSketch, chunks []*table.Table, p int, chain bool) Result {
	t.Helper()
	accs := make([]Accumulator, p)
	var results []Result
	for i, c := range chunks {
		w := i % p
		if accs[w] != nil && chain {
			results = append(results, accs[w].Result())
		}
		switch {
		case accs[w] == nil:
			accs[w] = sk.NewAccumulator()
		case chain:
			accs[w] = accs[w].Next()
		}
		if err := accs[w].Add(c); err != nil {
			t.Fatalf("%s: Add(%s): %v", sk.Name(), c.ID(), err)
		}
	}
	for _, a := range accs {
		if a != nil {
			results = append(results, a.Result())
		}
	}
	out, err := MergeTree(sk, results...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNextKAccumulatorMatchesReference is the pruned scan's
// differential oracle: for every case × table × chunking × worker count
// the accumulator result must DeepEqual the boxed scan per chunk plus
// the sequential Merge.
func TestNextKAccumulatorMatchesReference(t *testing.T) {
	type tcase struct {
		name  string
		parts []*table.Table
		info  table.GenInfo
	}
	var tables []tcase
	// Seeds between them draw every membership shape, missing in every
	// column, int spans from 3 values (everything ties) to 2^40, and
	// dictionaries from 1 to 5000 strings.
	for seed := uint64(1); seed <= 8; seed++ {
		parts, info := table.GenPartitions(fmt.Sprintf("nk%d", seed), seed, 2500, 3)
		tables = append(tables, tcase{fmt.Sprintf("gen%d", seed), parts, info})
	}
	for _, tc := range tables {
		for _, sk := range nextKCases(tc.parts, tc.info) {
			for _, nChunks := range []int{1, 4} {
				var chunks []*table.Table
				for _, p := range tc.parts {
					chunks = append(chunks, chunkViews(p, nChunks)...)
				}
				want := boxedFold(t, sk, chunks)
				for p := 1; p <= 3; p++ {
					for _, chain := range []bool{false, true} {
						got := foldAccumulators(t, sk, chunks, p, chain)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s chunks=%d workers=%d chain=%v: accumulator differs from the boxed scan\n got %+v\nwant %+v",
								tc.name, sk.Name(), nChunks, p, chain, got, want)
						}
					}
				}
			}
		}
	}
}

// tieTable is a tie-heavy table over membership m. "l3" holds three
// values and is missing on 2% of rows; "lm" is missing on 60%; "dom" is
// "m0" on 70% of rows and one of 200 strings on the rest (ingest_query's
// "+msg" lead); "nan" is NaN on every row where l3 is 0 and one of five
// values elsewhere, so NaN only ever ties NaN; "w" is nearly distinct.
func tieTable(id string, m table.Membership) *table.Table {
	n := m.Max()
	l3, w := make([]int64, n), make([]int64, n)
	lm, nan := make([]float64, n), make([]float64, n)
	dom := make([]string, n)
	l3miss, lmmiss := table.NewBitset(n), table.NewBitset(n)
	for i := 0; i < n; i++ {
		x := uint64(i+7) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		l3[i], w[i] = int64(x%3), int64(x>>40%100000)
		if x>>8%50 == 0 {
			l3miss.Set(i)
		}
		lm[i] = float64(x >> 12 % 1000)
		if x>>20%5 < 3 {
			lmmiss.Set(i)
		}
		nan[i] = float64(x>>24%5) - 2
		if l3[i] == 0 && !l3miss.Get(i) {
			nan[i] = math.NaN()
		}
		dom[i] = "m0"
		if x>>32%10 >= 7 {
			dom[i] = fmt.Sprintf("m%d", x>>36%200)
		}
	}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "l3", Kind: table.KindInt},
		table.ColumnDesc{Name: "lm", Kind: table.KindDouble},
		table.ColumnDesc{Name: "dom", Kind: table.KindString},
		table.ColumnDesc{Name: "nan", Kind: table.KindDouble},
		table.ColumnDesc{Name: "w", Kind: table.KindInt},
	)
	return table.New(id, schema, []table.Column{
		table.NewIntColumn(table.KindInt, l3, l3miss),
		table.NewDoubleColumn(lm, lmmiss),
		table.NewStringColumn(dom, nil),
		table.NewDoubleColumn(nan, nil),
		table.NewIntColumn(table.KindInt, w, nil),
	}, m)
}

// nextKFromSpec decodes a fuzzed next-K shape over the GenPartitions
// columns: spec[0] picks 1-5 order levels, each following byte one
// level (bits 0-6 the column, bit 7 descending), and up to three more
// bytes the extra columns.
func nextKFromSpec(spec []byte, k uint8) *NextKSketch {
	cols := []string{"gi", "gd", "gs", "gt", "gc"}
	col := func(b byte) string { return cols[int(b&0x7f)%len(cols)] }
	sk := &NextKSketch{K: int(k % 64)}
	levels := 1
	if len(spec) > 0 {
		levels += int(spec[0] % 5)
		spec = spec[1:]
	}
	for i := 0; i < levels; i++ {
		var b byte
		if i < len(spec) {
			b = spec[i]
		}
		sk.Order = sk.Order.Then(col(b), b&0x80 == 0)
	}
	for _, b := range spec[min(levels, len(spec)):][:min(3, max(0, len(spec)-levels))] {
		sk.Extra = append(sk.Extra, col(b))
	}
	return sk
}

// FuzzNextKPrune holds the pruned scan to the boxed scan on fuzzed
// shapes: a GenPartitions table from seed, an order of 1-5 levels and
// extra columns from spec, K, and a cursor that is the order key of
// member row cursor-1 (none when cursor is 0). Next-chained
// accumulators at 1-3 workers must DeepEqual the boxed scan. The
// checked-in corpus holds the tie shapes: a K-th key that is missing, a
// dominant lead, a descending level after a tie, string tie-breaks whose
// dictionaries differ by partition, a double tie-break and cursors
// inside a tie run.
func FuzzNextKPrune(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, spec []byte, k uint8, cursor uint16) {
		parts, info := table.GenPartitions("fz", seed, 400, 3)
		sk := nextKFromSpec(spec, k)
		if n := int(cursor); n > 0 && info.MemberRows > 0 {
			n = (n - 1) % int(info.MemberRows)
			for _, p := range parts {
				if m := p.NumRows(); n >= m {
					n -= m
					continue
				}
				cols, err := rowColumns("fuzz", p.Schema(), sk.Order, nil)
				if err != nil {
					t.Fatal(err)
				}
				p.Members().Iterate(func(row int) bool {
					if n == 0 {
						sk.From = p.GetRowCols(row, cols)
					}
					n--
					return n >= 0
				})
				break
			}
		}
		var chunks []*table.Table
		for _, p := range parts {
			chunks = append(chunks, chunkViews(p, 2)...)
		}
		want := boxedFold(t, sk, chunks)
		for p := 1; p <= 3; p++ {
			if got := foldAccumulators(t, sk, chunks, p, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: accumulator differs\n got %+v\nwant %+v", sk.Name(), p, got, want)
			}
		}
	})
}

// TestNextKAccumulatorDuplicateHeavy covers leads with a handful of
// distinct keys over every membership shape of eqTables, including the
// masked variants of each column, and the
// tie shapes of tieTable over the same memberships.
func TestNextKAccumulatorDuplicateHeavy(t *testing.T) {
	for _, tc := range eqTables(5000) {
		ties := tieTable("ties-"+tc.name, tc.t.Members())
		for _, c := range []struct {
			t  *table.Table
			sk *NextKSketch
		}{
			{tc.t, &NextKSketch{Order: table.Asc("s"), K: 3}},
			{tc.t, &NextKSketch{Order: table.Desc("sm"), Extra: []string{"im"}, K: 6}},
			{tc.t, &NextKSketch{Order: table.Asc("sm").Then("dm", false), K: 30}},
			{tc.t, &NextKSketch{Order: table.Asc("s").Then("i", true), K: 30}},
			{tc.t, &NextKSketch{Order: table.Desc("im").Then("s", true), Extra: []string{"d"}, K: 40, From: table.Row{table.IntValue(500), table.StringValue("cat")}}},
			{tc.t, &NextKSketch{Order: table.Asc("sm"), Extra: []string{"i"}, K: 40, From: table.Row{table.StringValue("bee")}}},
			// The K-th key is missing.
			{tc.t, &NextKSketch{Order: table.Asc("im"), Extra: []string{"s", "d"}, K: 20}},
			{ties, &NextKSketch{Order: table.Asc("lm"), Extra: []string{"dom", "w"}, K: 20}},
			// One dominant lead value.
			{ties, &NextKSketch{Order: table.Asc("dom"), Extra: []string{"w"}, K: 20}},
			// NaN ties NaN in a tie-break column, in the order and in the
			// extra columns.
			{ties, &NextKSketch{Order: table.Asc("l3").Then("nan", true), Extra: []string{"w"}, K: 30,
				From: table.Row{table.MissingValue(table.KindInt), table.DoubleValue(1e9)}}},
			{ties, &NextKSketch{Order: table.Desc("l3"), Extra: []string{"nan", "w"}, K: 30, From: table.Row{table.IntValue(1)}}},
			// A descending level after an ascending tie.
			{ties, &NextKSketch{Order: table.Asc("dom").Then("w", false), K: 20}},
			{ties, &NextKSketch{Order: table.Asc("l3").Then("dom", true).Then("w", false), K: 25}},
			// A cursor level of another kind than its column cannot be
			// compared in bulk: on the lead every row, and on a
			// tie-break the rows still tied there, take the exact insert.
			{ties, &NextKSketch{Order: table.Asc("l3").Then("w", true), Extra: []string{"dom"}, K: 20, From: table.Row{table.IntValue(1), table.StringValue("x")}}},
			{ties, &NextKSketch{Order: table.Desc("l3"), Extra: []string{"w"}, K: 20, From: table.Row{table.StringValue("x")}}},
			// A cursor inside a tie run.
			{ties, &NextKSketch{Order: table.Asc("dom").Then("w", true), K: 20, From: table.Row{table.StringValue("m0"), table.IntValue(50000)}}},
			{ties, &NextKSketch{Order: table.Asc("l3").Then("w", true), Extra: []string{"dom"}, K: 20, From: table.Row{table.IntValue(1), table.IntValue(50000)}}},
		} {
			sk := c.sk
			chunks := chunkViews(c.t, 3)
			want := boxedFold(t, sk, chunks)
			for p := 1; p <= 3; p++ {
				for _, chain := range []bool{false, true} {
					if got := foldAccumulators(t, sk, chunks, p, chain); !equalNaN(got, want) {
						t.Fatalf("%s/%s workers=%d chain=%v: accumulator differs\n got %+v\nwant %+v", tc.name, sk.Name(), p, chain, got, want)
					}
				}
			}
		}
	}
}

// equalNaN is reflect.DeepEqual over next-K lists, except that a NaN
// equals a NaN (DeepEqual compares floats with ==, so it never does).
func equalNaN(a, b Result) bool {
	la, lb := *a.(*NextKList), *b.(*NextKList)
	if len(la.Rows) != len(lb.Rows) {
		return false
	}
	for i := range la.Rows {
		if len(la.Rows[i]) != len(lb.Rows[i]) {
			return false
		}
		for j, va := range la.Rows[i] {
			vb := lb.Rows[i][j]
			if math.IsNaN(va.D) && math.IsNaN(vb.D) {
				va.D, vb.D = 0, 0
			}
			if va != vb {
				return false
			}
		}
	}
	la.Rows, lb.Rows = nil, nil
	return reflect.DeepEqual(la, lb)
}

// TestNextKAccumulatorPrunes checks that the pruned scan really skips
// the boxed path: on a large table with distinct leads almost no row is
// materialized.
func TestNextKAccumulatorPrunes(t *testing.T) {
	tbl := genTable("prune", 200000, 9)
	sk := &NextKSketch{Order: table.Asc("x"), Extra: []string{"cat"}, K: 20}
	acc := sk.NewAccumulator()
	allocs := testing.AllocsPerRun(1, func() {
		if err := acc.Add(tbl); err != nil {
			t.Fatal(err)
		}
	})
	// The boxed scan allocates one Row per member row.
	if allocs > 20000 {
		t.Errorf("pruned scan made %.0f allocations over 200000 rows; pruning is not taking effect", allocs)
	}
	// A successor inherits the K-th key, so over the same rows it skips
	// the K·ln(n/K) admissions a cold window pays to find it.
	addTo := func(mk func() Accumulator) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := mk().Add(tbl); err != nil {
				t.Fatal(err)
			}
		})
	}
	cold := addTo(sk.NewAccumulator)
	warm := addTo(acc.Next)
	if warm > cold/2 {
		t.Errorf("successor made %.0f allocations, cold accumulator %.0f; the inherited bound is not pruning", warm, cold)
	}

	// Tied leads: a double missing on 2% of rows, so the K-th key is
	// missing (+DepDelay over flights), and a 3-valued int. The rows
	// tied with the K-th row on the lead are compared typed on the
	// tie-break; only the few that enter the window are copied.
	const n = 200000
	m2, l3, x := make([]float64, n), make([]int64, n), make([]float64, n)
	miss := table.NewBitset(n)
	rng := rand.New(rand.NewPCG(9, 10))
	tied := map[string]int{}
	for i := 0; i < n; i++ {
		m2[i], l3[i], x[i] = rng.Float64(), rng.Int64N(3), rng.Float64()
		if rng.IntN(50) == 0 {
			miss.Set(i)
			tied["m2"]++
		}
		if l3[i] == 0 {
			tied["l3"]++
		}
	}
	ties := table.New("prune-ties", table.NewSchema(
		table.ColumnDesc{Name: "m2", Kind: table.KindDouble},
		table.ColumnDesc{Name: "l3", Kind: table.KindInt},
		table.ColumnDesc{Name: "x", Kind: table.KindDouble},
	), []table.Column{table.NewDoubleColumn(m2, miss), table.NewIntColumn(table.KindInt, l3, nil), table.NewDoubleColumn(x, nil)},
		table.FullMembership(n))
	for _, lead := range []string{"m2", "l3"} {
		sk := &NextKSketch{Order: table.Asc(lead), Extra: []string{"x"}, K: 20}
		allocs := testing.AllocsPerRun(3, func() {
			if err := sk.NewAccumulator().Add(ties); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tied[lead])/10 {
			t.Errorf("%s: %.0f allocations over %d rows tied on the lead; ties are being boxed", sk.Name(), allocs, tied[lead])
		}
		t.Logf("%s: %.0f allocations, %d rows tied on the lead", sk.Name(), allocs, tied[lead])
	}
}

func TestCursorLengthRejected(t *testing.T) {
	tbl := genTable("cur", 100, 3)
	order := table.Asc("x").Then("id", true)
	short := table.Row{table.DoubleValue(1)}
	long := table.Row{table.DoubleValue(1), table.IntValue(2), table.IntValue(3)}
	for _, from := range []table.Row{short, long} {
		nk := &NextKSketch{Order: order, K: 5, From: from}
		if _, err := nk.Summarize(tbl); !errors.Is(err, ErrCursorLength) {
			t.Errorf("nextk Summarize with %d-value cursor: err = %v, want ErrCursorLength", len(from), err)
		}
		ft := &FindTextSketch{Col: "cat", Pattern: "a", Kind: MatchSubstring, Order: order, From: from}
		if _, err := ft.Summarize(tbl); !errors.Is(err, ErrCursorLength) {
			t.Errorf("find Summarize with %d-value cursor: err = %v, want ErrCursorLength", len(from), err)
		}
		for _, sk := range []Sketch{nk, ft} {
			b, _ := AppendSketchWire(nil, sk)
			if _, _, err := DecodeSketchWire(b); !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("%T decode with %d-value cursor: err = %v, want wire.ErrCorrupt", sk, len(from), err)
			}
		}
	}
	// An empty, non-nil cursor is no cursor.
	nk := &NextKSketch{Order: order, K: 5, From: table.Row{}}
	res, err := nk.Summarize(tbl)
	if err != nil || res.(*NextKList).Before != 0 {
		t.Errorf("empty cursor: Before = %v, err = %v", res, err)
	}
}
