package table

import (
	"reflect"
	"testing"
	"time"
)

func buildTestTable(t *testing.T) *Table {
	t.Helper()
	schema := NewSchema(
		ColumnDesc{Name: "id", Kind: KindInt},
		ColumnDesc{Name: "price", Kind: KindDouble},
		ColumnDesc{Name: "city", Kind: KindString},
		ColumnDesc{Name: "when", Kind: KindDate},
	)
	b := NewBuilder(schema, 8)
	base := time.Date(2019, 7, 10, 0, 0, 0, 0, time.UTC)
	cities := []string{"oslo", "lima", "oslo", "kyiv", "lima", "oslo"}
	for i := 0; i < 6; i++ {
		row := Row{
			IntValue(int64(i)),
			DoubleValue(float64(i) * 1.5),
			StringValue(cities[i]),
			DateValue(base.Add(time.Duration(i) * time.Hour)),
		}
		if i == 3 {
			row[1] = MissingValue(KindDouble)
		}
		b.AppendRow(row)
	}
	return b.Freeze("test")
}

func TestBuilderFreeze(t *testing.T) {
	tbl := buildTestTable(t)
	if got := tbl.NumRows(); got != 6 {
		t.Fatalf("NumRows = %d, want 6", got)
	}
	if got := tbl.Schema().NumColumns(); got != 4 {
		t.Fatalf("NumColumns = %d, want 4", got)
	}
	price := tbl.MustColumn("price")
	if !price.Value(3).Missing {
		t.Error("price[3] should be missing")
	}
	if price.Value(2).Missing {
		t.Error("price[2] should be present")
	}
	if got := price.Value(2).Double(); got != 3.0 {
		t.Errorf("price[2] = %v, want 3.0", got)
	}
	id := tbl.MustColumn("id")
	if got := id.Value(5).I; got != 5 {
		t.Errorf("id[5] = %d, want 5", got)
	}
}

// TestBuilderAppendPaths: a table built cell by cell, or from frozen
// batches through AppendTable, holds the rows a table built through
// AppendRow holds, missing cells and dictionary included, and a failed
// AppendTable precondition panics.
func TestBuilderAppendPaths(t *testing.T) {
	want := buildTestTable(t)
	rows := want.Rows()
	rows[0][2] = MissingValue(KindString) // a missing string too

	byRow := NewBuilder(want.Schema(), 0)
	cells := NewBuilder(want.Schema(), 0)
	for _, row := range rows {
		byRow.AppendRow(row)
		for col, v := range row {
			switch {
			case v.Missing:
				cells.AppendMissing(col)
			case v.Kind == KindDouble:
				cells.AppendDouble(col, v.D)
			case v.Kind == KindString:
				cells.AppendString(col, []byte(v.S))
			default:
				cells.AppendInt(col, v.I)
			}
		}
	}
	batches := NewBuilder(want.Schema(), 0)
	for lo := 0; lo < len(rows); lo += 4 {
		b := NewBuilder(want.Schema(), 0)
		for _, row := range rows[lo:min(lo+4, len(rows))] {
			b.AppendRow(row)
		}
		batches.AppendTable(b.Freeze("batch"))
	}
	ref := byRow.Freeze("ref").Rows()
	for name, b := range map[string]*Builder{"cells": cells, "batches": batches} {
		got := b.Freeze(name)
		if !reflect.DeepEqual(got.Rows(), ref) {
			t.Errorf("%s: rows %v, want %v", name, got.Rows(), ref)
		}
		if d, w := got.MustColumn("city").(*StringColumn).Dict(), want.MustColumn("city").(*StringColumn).Dict(); !reflect.DeepEqual(d, w) {
			t.Errorf("%s: dictionary %v, want %v", name, d, w)
		}
	}

	for name, tbl := range map[string]*Table{
		"other schema":   New("x", NewSchema(ColumnDesc{Name: "id", Kind: KindInt}), []Column{NewIntColumn(KindInt, []int64{1}, nil)}, FullMembership(1)),
		"non-member row": want.Filter("f", func(row int) bool { return row > 0 }),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendTable of a table with %s did not panic", name)
				}
			}()
			NewBuilder(want.Schema(), 0).AppendTable(tbl)
		}()
	}
}

func TestStringColumnDictionarySorted(t *testing.T) {
	tbl := buildTestTable(t)
	city := tbl.MustColumn("city").(*StringColumn)
	dict := city.Dict()
	want := []string{"kyiv", "lima", "oslo"}
	if len(dict) != len(want) {
		t.Fatalf("dict = %v, want %v", dict, want)
	}
	for i := range want {
		if dict[i] != want[i] {
			t.Fatalf("dict = %v, want %v", dict, want)
		}
	}
	// Code order must equal string order.
	if city.Codes()[0] <= city.Codes()[3] { // oslo vs kyiv
		t.Error("oslo should have a greater code than kyiv")
	}
	if city.Value(1).String() != "lima" {
		t.Errorf("city[1] = %q, want lima", city.Value(1).String())
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{DoubleValue(3.5), DoubleValue(1.5), 1},
		{StringValue("a"), StringValue("b"), -1},
		{MissingValue(KindInt), IntValue(-100), -1},
		{IntValue(0), MissingValue(KindInt), 1},
		{MissingValue(KindInt), MissingValue(KindInt), 0},
		{IntValue(2), DoubleValue(2.5), -1}, // cross-kind numeric
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFilterSharesStorage(t *testing.T) {
	tbl := buildTestTable(t)
	city := tbl.MustColumn("city")
	filtered := tbl.Filter("f1", func(row int) bool { return city.Value(row).String() == "oslo" })
	if got := filtered.NumRows(); got != 3 {
		t.Fatalf("filtered rows = %d, want 3", got)
	}
	// Same column objects (shared storage).
	if filtered.MustColumn("city") != city {
		t.Error("filter should share column storage")
	}
	// Rows visible through membership are the oslo ones.
	filtered.Members().Iterate(func(i int) bool {
		if city.Value(i).String() != "oslo" {
			t.Errorf("row %d leaked through filter", i)
		}
		return true
	})
}

func TestWithColumn(t *testing.T) {
	tbl := buildTestTable(t)
	id := tbl.MustColumn("id")
	vals := make([]int64, id.Len())
	for i := range vals {
		vals[i] = id.Value(i).I * 2
	}
	doubled := NewIntColumn(KindInt, vals, nil)
	t2, err := tbl.WithColumn("t2", "id2", doubled)
	if err != nil {
		t.Fatal(err)
	}
	if got := t2.MustColumn("id2").Value(4).I; got != 8 {
		t.Errorf("id2[4] = %d, want 8", got)
	}
	if _, err := tbl.WithColumn("t3", "id", doubled); err == nil {
		t.Error("duplicate column name should fail")
	}
}

func TestGetRow(t *testing.T) {
	tbl := buildTestTable(t)
	row := tbl.GetRow(3)
	if !row[1].Missing {
		t.Error("row[1] should be missing for physical row 3")
	}
	if row[0].I != 3 {
		t.Errorf("row[0] = %v, want 3", row[0])
	}
	if row[2].S != "kyiv" {
		t.Errorf("row[2] = %v, want kyiv", row[2])
	}
}

func TestRecordOrderReversed(t *testing.T) {
	o := Asc("a").Then("b", false)
	r := o.Reversed()
	if r[0].Ascending || !r[1].Ascending {
		t.Errorf("Reversed() = %v", r)
	}
	if o.String() != "+a,-b" || r.String() != "-a,+b" {
		t.Errorf("String() = %q / %q", o.String(), r.String())
	}
}

func TestRowComparatorMissingFirst(t *testing.T) {
	order := Asc("x")
	cmp := order.RowComparator()
	a := Row{MissingValue(KindInt)}
	b := Row{IntValue(-5)}
	if cmp(a, b) >= 0 {
		t.Error("missing should sort before present ascending")
	}
	desc := Desc("x").RowComparator()
	if desc(a, b) <= 0 {
		t.Error("missing should sort after present descending")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(ColumnDesc{Name: "a", Kind: KindInt}, ColumnDesc{Name: "b", Kind: KindString})
	if s.ColumnIndex("b") != 1 || s.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex wrong")
	}
	s2 := s.Append(ColumnDesc{Name: "c", Kind: KindDouble})
	if s.NumColumns() != 2 || s2.NumColumns() != 3 {
		t.Error("Append should not mutate the receiver")
	}
	if !s.Equal(s) || s.Equal(s2) {
		t.Error("Equal wrong")
	}
	if s.String() != "a:int, b:string" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindNone, KindInt, KindDouble, KindString, KindDate} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind should reject unknown names")
	}
	if !KindDate.Numeric() || KindString.Numeric() {
		t.Error("Numeric() wrong")
	}
}
