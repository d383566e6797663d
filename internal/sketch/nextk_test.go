package sketch

import (
	"errors"
	"fmt"
	"reflect"
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
// the computed column the primitive cannot prune on), cursors that are
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
	}
	// A multi-column cursor taken from the data: the last row of the
	// first page, so the second page starts mid-tie on the lead.
	first := &NextKSketch{Order: five, K: 3}
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
		cases = append(cases, &NextKSketch{Order: five, K: 25, From: rows[len(rows)-1][:len(five)]})
	}
	return cases
}

// foldAccumulators deals chunks round-robin to p workers and combines
// their results with the merge tree. With chain set a worker retires its
// accumulator after every chunk and folds the next chunk into the
// successor (AccumulatorAfter), as the engine's workers do between runs.
func foldAccumulators(t *testing.T, sk AccumulatorSketch, chunks []*table.Table, p int, chain bool) Result {
	t.Helper()
	accs := make([]Accumulator, p)
	var results []Result
	for i, c := range chunks {
		w := i % p
		if accs[w] != nil && chain {
			results = append(results, accs[w].Result())
		}
		if accs[w] == nil || chain {
			accs[w] = AccumulatorAfter(sk, accs[w])
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
// the accumulator result must DeepEqual Summarize per chunk plus the
// sequential Merge.
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
				want, err := MergeAll(sk, summarizeParts(t, sk, chunks)...)
				if err != nil {
					t.Fatal(err)
				}
				for p := 1; p <= 3; p++ {
					for _, chain := range []bool{false, true} {
						got := foldAccumulators(t, sk, chunks, p, chain)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s chunks=%d workers=%d chain=%v: accumulator differs from Summarize+Merge\n got %+v\nwant %+v",
								tc.name, sk.Name(), nChunks, p, chain, got, want)
						}
					}
				}
			}
		}
	}
}

// TestNextKAccumulatorDuplicateHeavy covers leads with a handful of
// distinct keys over every membership shape of eqTables, including the
// stored-with-missing and computed variants of each column.
func TestNextKAccumulatorDuplicateHeavy(t *testing.T) {
	for _, tc := range eqTables(5000) {
		for _, sk := range []*NextKSketch{
			{Order: table.Asc("s"), K: 3},
			{Order: table.Desc("sm"), Extra: []string{"im"}, K: 6},
			{Order: table.Asc("sm").Then("dm", false), K: 30},
			{Order: table.Asc("cs").Then("i", true), K: 30},
			{Order: table.Desc("im").Then("s", true), Extra: []string{"d"}, K: 40, From: table.Row{table.IntValue(500), table.StringValue("cat")}},
			{Order: table.Asc("sm"), Extra: []string{"i"}, K: 40, From: table.Row{table.StringValue("bee")}},
		} {
			chunks := chunkViews(tc.t, 3)
			want, err := MergeAll(sk, summarizeParts(t, sk, chunks)...)
			if err != nil {
				t.Fatal(err)
			}
			for p := 1; p <= 3; p++ {
				for _, chain := range []bool{false, true} {
					if got := foldAccumulators(t, sk, chunks, p, chain); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s workers=%d chain=%v: accumulator differs\n got %+v\nwant %+v", tc.name, sk.Name(), p, chain, got, want)
					}
				}
			}
		}
	}
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
	// The reference path allocates one Row per member row.
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
	warm := addTo(func() Accumulator { return AccumulatorAfter(sk, acc) })
	if warm > cold/2 {
		t.Errorf("successor made %.0f allocations, cold accumulator %.0f; the inherited bound is not pruning", warm, cold)
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
		if err := nk.NewAccumulator().Add(tbl); !errors.Is(err, ErrCursorLength) {
			t.Errorf("nextk Add with %d-value cursor: err = %v, want ErrCursorLength", len(from), err)
		}
		ft := &FindTextSketch{Col: "cat", Pattern: "a", Kind: MatchSubstring, Order: order, From: from}
		if _, err := ft.Summarize(tbl); !errors.Is(err, ErrCursorLength) {
			t.Errorf("find Summarize with %d-value cursor: err = %v, want ErrCursorLength", len(from), err)
		}
		for _, sk := range []WireSketch{nk, ft} {
			fresh := reflect.New(reflect.TypeOf(sk).Elem()).Interface().(WireSketch)
			if _, err := fresh.DecodeWire(sk.AppendWire(nil)); !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("%T DecodeWire with %d-value cursor: err = %v, want wire.ErrCorrupt", sk, len(from), err)
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
