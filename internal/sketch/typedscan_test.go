package sketch

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/table"
)

// The tests in this file pin the scans that read typed column storage
// instead of table.Value — sampled heavy hitters and find-text — to
// their row-at-a-time references, which box every scanned row through
// Column.Value.

// edgeCellTable builds one column of each kind with missing cells, and
// cells whose Value map keys are edge cases: a double column holding
// -0, +0 and NaN cells, negative ints, dates, and a dictionary of more
// than mgDenseDictMax codes.
func edgeCellTable(rows int) *table.Table {
	ints := make([]int64, rows)
	dates := make([]int64, rows)
	doubles := make([]float64, rows)
	small := make([]string, rows)
	large := make([]string, rows)
	miss := table.NewBitset(rows)
	for i := range rows {
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		ints[i] = int64(x%9) - 4
		dates[i] = 1500000000000 + int64(x%5)*86400000
		switch x % 6 {
		case 0:
			doubles[i] = 0
		case 1:
			doubles[i] = math.Copysign(0, -1)
		case 2:
			doubles[i] = math.NaN()
		default:
			doubles[i] = float64(x%13) / 4
		}
		small[i] = []string{"ant", "bee", "cat", "dog"}[x%4]
		large[i] = fmt.Sprintf("w%d", x%6000)
		if i%11 == 0 {
			miss.Set(i)
		}
	}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "t", Kind: table.KindDate},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "sl", Kind: table.KindString},
	)
	return table.New("edge", schema, []table.Column{
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewIntColumn(table.KindDate, dates, miss),
		table.NewDoubleColumn(doubles, miss),
		table.NewStringColumn(small, miss),
		table.NewStringColumn(large, miss),
	}, table.FullMembership(rows))
}

// edgeCellViews is edgeCellTable under a full, a bitmap and a sparse
// membership.
func edgeCellViews(rows int) map[string]*table.Table {
	tbl := edgeCellTable(rows)
	return map[string]*table.Table{
		"full":   tbl,
		"bitmap": tbl.Filter("edge/b", func(row int) bool { return row%3 != 0 }),
		"sparse": tbl.Filter("edge/s", func(row int) bool { return row%67 == 0 }),
	}
}

// refSampleHH is the table.Value reference of the sampled heavy-hitters
// scan: every scanned row's Value counted in a Value-keyed map, a zero
// double spelled +0.
func refSampleHH(tbl *table.Table, col string, k int, rate float64, seed uint64) *HeavyHitters {
	c := tbl.MustColumn(col)
	out := &HeavyHitters{K: k, Counters: map[table.Value]int64{}, Sampled: true}
	refScan(tbl, rate, seed, func(row int) bool {
		out.ScannedRows++
		out.Counters[plusZero(c.Value(row))]++
		return true
	})
	return out
}

// TestHeavyHittersSpellZeroAlike: over the cells 0, 1 and -0, Misra–
// Gries and the sampled sketch at rate 1 count the same zero rows under
// one key spelled +0, whichever zero a membership scans last.
func TestHeavyHittersSpellZeroAlike(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cells := []float64{0, 1, negZero}
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = cells[i%len(cells)]
	}
	tbl := table.New("zeros", table.NewSchema(table.ColumnDesc{Name: "d", Kind: table.KindDouble}),
		[]table.Column{table.NewDoubleColumn(vals, nil)}, table.FullMembership(len(vals)))
	for name, v := range map[string]*table.Table{
		"full":   tbl,
		"bitmap": tbl.Filter("zeros/b", func(row int) bool { return row%5 != 0 }),
		"sparse": tbl.Filter("zeros/s", func(row int) bool { return row%67 == 1 }),
	} {
		zero := func(sk Sketch) (table.Value, int64) {
			res, err := sk.Summarize(v)
			if err != nil {
				t.Fatal(err)
			}
			for val, n := range res.(*HeavyHitters).Counters {
				if val.D == 0 && !val.Missing {
					return val, n
				}
			}
			t.Fatalf("%s %s: no zero counter", name, sk.Name())
			return table.Value{}, 0
		}
		mg, mgN := zero(&MisraGriesSketch{Col: "d", K: 8})
		hh, hhN := zero(&SampleHeavyHittersSketch{Col: "d", K: 8, Rate: 1, Seed: 3})
		if math.Signbit(mg.D) || math.Signbit(hh.D) || mgN != hhN {
			t.Errorf("%s: zero counters misra-gries %v×%d, sampled %v×%d; want one +0 count",
				name, mg.D, mgN, hh.D, hhN)
		}
	}
}

// hhEntry is one counter of a HeavyHitters summary with its double
// spelled as bits, so -0 and +0 differ and NaN equals itself.
type hhEntry struct {
	kind    table.Kind
	missing bool
	i       int64
	dbits   uint64
	s       string
	count   int64
}

// hhEntries lists h's counters in a fixed order. Two summaries with NaN
// keys never compare DeepEqual as maps (a NaN key matches no key), so
// the tests compare these lists instead.
func hhEntries(h *HeavyHitters) []hhEntry {
	out := make([]hhEntry, 0, len(h.Counters))
	for v, c := range h.Counters {
		out = append(out, hhEntry{v.Kind, v.Missing, v.I, math.Float64bits(v.D), v.S, c})
	}
	slices.SortFunc(out, func(a, b hhEntry) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.i, b.i), cmp.Compare(a.dbits, b.dbits),
			cmp.Compare(a.s, b.s), cmp.Compare(a.count, b.count))
	})
	return out
}

// checkSampleHH compares one sample-HH summary with refSampleHH: the
// same counters (key bits included), scanned rows, K and Sampled flag.
func checkSampleHH(t *testing.T, name string, tbl *table.Table, col string, rate float64) {
	t.Helper()
	const k, seed = 8, 21
	got, err := (&SampleHeavyHittersSketch{Col: col, K: k, Rate: rate, Seed: seed}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	g, want := got.(*HeavyHitters), refSampleHH(tbl, col, k, rate, seed)
	if g.K != want.K || g.ScannedRows != want.ScannedRows || g.Sampled != want.Sampled ||
		!reflect.DeepEqual(hhEntries(g), hhEntries(want)) {
		t.Errorf("%s/%s rate=%g: sample-HH differs from the Value scan\n got %d rows %v\nwant %d rows %v",
			name, col, rate, g.ScannedRows, hhEntries(g), want.ScannedRows, hhEntries(want))
	}
}

// TestSampleHHEdgeCells pins the typed tallies on the cells where a
// typed key could part from a Value key: -0 and +0 are one counter, each
// NaN cell is a counter of its own, missing cells are one counter of the
// column's kind, a date keeps its kind, and a large dictionary takes the
// code-keyed map.
func TestSampleHHEdgeCells(t *testing.T) {
	views := edgeCellViews(12000)
	if n := views["full"].MustColumn("sl").(*table.StringColumn).DictSize(); n <= mgDenseDictMax {
		t.Fatalf("column sl has %d codes; the map path needs more than %d", n, mgDenseDictMax)
	}
	for name, v := range views {
		for _, col := range v.Schema().Names() {
			for _, rate := range []float64{0.3, 1} {
				checkSampleHH(t, name, v, col, rate)
			}
		}
	}
}

// refFindText is the row-at-a-time reference of FindTextSketch: a row
// matches when its Value is present and its display form matches.
func refFindText(t *testing.T, tbl *table.Table, s *FindTextSketch) *FindResult {
	t.Helper()
	col := tbl.MustColumn(s.Col)
	match, err := s.matcher()
	if err != nil {
		t.Fatal(err)
	}
	cols, err := rowColumns("find", tbl.Schema(), s.Order, s.Extra)
	if err != nil {
		t.Fatal(err)
	}
	keyCmp, cmpRows := s.Order.RowComparator(), (&NextKSketch{Order: s.Order}).rowCmp()
	out := &FindResult{}
	tbl.Members().Iterate(func(row int) bool {
		if v := col.Value(row); v.Missing || !match(v.String()) {
			return true
		}
		r := tbl.GetRowCols(row, cols)
		if len(s.From) > 0 && keyCmp(r[:len(s.Order)], s.From) <= 0 {
			out.MatchesBefore++
			return true
		}
		out.MatchesAfter++
		if out.Match == nil || cmpRows(r, out.Match) < 0 {
			out.Match = r
		}
		return true
	})
	return out
}

// TestFindTextMatchesRowScan pins find-text over each column kind to
// the per-row reference, with and without a start row, and checks that
// a dictionary column runs its matcher at most once per distinct code.
func TestFindTextMatchesRowScan(t *testing.T) {
	patterns := map[string][]string{
		"i":  {"-", "3"},
		"t":  {"2017-07-1", "00:00"},
		"d":  {"-0", "NaN", "0.25", "^[0-9]$"},
		"s":  {"A", "cat"},
		"sl": {"w1", "w59"},
	}
	order := table.Asc("i").Then("s", false)
	for name, v := range edgeCellViews(6000) {
		for col, pats := range patterns {
			for _, pat := range pats {
				for _, kind := range []MatchKind{MatchExact, MatchSubstring, MatchRegex} {
					for _, from := range []table.Row{nil, {table.IntValue(0), table.StringValue("bee")}} {
						sk := &FindTextSketch{Col: col, Pattern: pat, Kind: kind, Order: order, Extra: []string{"t"}, From: from}
						got, err := sk.Summarize(v)
						if err != nil {
							t.Fatal(err)
						}
						if want := refFindText(t, v, sk); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: %s: got %+v, want %+v", name, sk.Name(), got, want)
						}
					}
				}
			}
		}
		for _, col := range []string{"s", "sl"} {
			c := v.MustColumn(col).(*table.StringColumn)
			calls, codes := 0, map[int32]bool{}
			matches := matchRows(c, func(string) bool { calls++; return true })
			v.Members().Iterate(func(row int) bool {
				if matches(row) {
					codes[c.Codes()[row]] = true
				}
				return true
			})
			if calls != len(codes) {
				t.Errorf("%s/%s: matcher ran %d times over %d distinct codes", name, col, calls, len(codes))
			}
		}
	}
}

// refMoments is the row-at-a-time reference of MomentsSketch.
func refMoments(tbl *table.Table, s *MomentsSketch) *Moments {
	c := tbl.MustColumn(s.Col)
	out := s.Zero().(*Moments)
	tbl.Members().Iterate(func(row int) bool {
		v := c.Value(row)
		if v.Missing {
			out.Missing++
			return true
		}
		x := v.Double()
		if out.Count == 0 || x < out.Min {
			out.Min = x
		}
		if out.Count == 0 || x > out.Max {
			out.Max = x
		}
		out.Count++
		p := 1.0
		for i := range out.Sums {
			p *= x
			out.Sums[i] += p
		}
		return true
	})
	return out
}

// TestMomentsMatchesRowScan pins the moments scan over int, date and
// double columns to the per-row reference. The summaries compare in
// their %v form, which spells every float exactly and NaN as NaN.
func TestMomentsMatchesRowScan(t *testing.T) {
	for name, v := range edgeCellViews(6000) {
		for _, col := range []string{"i", "t", "d"} {
			sk := &MomentsSketch{Col: col, K: 3}
			got, err := sk.Summarize(v)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", refMoments(v, sk)); g != w {
				t.Errorf("%s/%s: got %s, want %s", name, col, g, w)
			}
		}
	}
}
