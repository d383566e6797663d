package sketch

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/table"
)

// mgTypedTable builds a table whose numeric columns hit the typed-key
// Misra–Gries edge cases: negative ints, both IEEE zeros, missing rows,
// and date values.
func mgTypedTable(rows int) *table.Table {
	ints := make([]int64, rows)
	doubles := make([]float64, rows)
	dates := make([]int64, rows)
	miss := table.NewBitset(rows)
	for i := 0; i < rows; i++ {
		x := uint64(i+1) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		ints[i] = int64(x%7) - 3 // heavy duplicates incl. negatives
		switch x % 5 {
		case 0:
			doubles[i] = 0.0
		case 1:
			doubles[i] = math.Copysign(0, -1) // -0.0: same Value map key as +0.0
		default:
			doubles[i] = float64(x%11) / 4
		}
		dates[i] = 1500000000000 + int64(x%3)*86400000
		if i%17 == 0 {
			miss.Set(i)
		}
	}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "t", Kind: table.KindDate},
	)
	return table.New("mgt", schema, []table.Column{
		table.NewIntColumn(table.KindInt, ints, miss),
		table.NewDoubleColumn(doubles, miss),
		table.NewIntColumn(table.KindDate, dates, nil),
	}, table.FullMembership(rows))
}

// TestTypedMisraGriesBitIdentical pins the satellite contract: the
// int64-keyed scan over stored numeric columns produces exactly the
// summary of the Value-keyed reference scan — including the folding of
// -0.0 and +0.0 into one counter, missing rows as their own stream
// symbol, and date Values carrying the column kind.
func TestTypedMisraGriesBitIdentical(t *testing.T) {
	tbl := mgTypedTable(5000)
	// Membership shapes: full, dense bitmap, sparse.
	views := map[string]*table.Table{
		"full":   tbl,
		"bitmap": tbl.Filter("mgt/b", func(row int) bool { return row%3 != 0 }),
		"sparse": tbl.Filter("mgt/s", func(row int) bool { return row%67 == 0 }),
	}
	for name, v := range views {
		for _, col := range []string{"i", "d", "t"} {
			for _, k := range []int{1, 3, 8, 200} {
				sk := &MisraGriesSketch{Col: col, K: k}
				got, err := sk.Summarize(v)
				if err != nil {
					t.Fatal(err)
				}
				want := refMisraGries(v, col, k)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s k=%d: typed scan differs from Value-keyed reference\n got %+v\nwant %+v",
						name, col, k, got, want)
				}
			}
		}
	}
}
