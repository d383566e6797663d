package expr

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/table"
)

// deriveTables are the tables TestDeriveColumn derives over: the
// columns of one generated partition under each membership shape of
// the sketch package's eqTables (full, range, bitmap, sparse, and a
// bitmap and a sparse list cut to a row window), plus every
// selectTables partition (clustered ranges and an empty partition
// among them).
func deriveTables() []*table.Table {
	parts, _ := selectTables()
	base := parts[0]
	n := base.Members().Max()
	cols := make([]table.Column, base.Schema().NumColumns())
	for i := range cols {
		cols[i] = base.ColumnAt(i)
	}
	bits := table.NewBitset(n)
	var sparse []int32
	for i := 0; i < n; i++ {
		if (i*7)%11 < 6 {
			bits.Set(i)
		}
		if i%23 == 5 {
			sparse = append(sparse, int32(i))
		}
	}
	window := func(m table.Membership) table.Membership {
		return table.FilterMembership(m, func(i int) bool { return i >= 61 && i < n-130 })
	}
	shapes := map[string]table.Membership{
		"full":       table.FullMembership(n),
		"range":      table.NewRangeMembership(n/7, n-n/9, n),
		"bitmap":     table.NewBitmapMembership(bits),
		"sparse":     table.NewSparseMembership(sparse, n),
		"bitmap/cut": window(table.NewBitmapMembership(bits)),
		"sparse/cut": window(table.NewSparseMembership(sparse, n)),
	}
	out := append([]*table.Table(nil), parts...)
	for name, m := range shapes {
		out = append(out, table.New("derive-"+name, base.Schema(), cols, m))
	}
	return out
}

// sameValue is Value equality with doubles compared by bits, so NaN
// equals NaN.
func sameValue(a, b table.Value) bool {
	return a.Kind == b.Kind && a.Missing == b.Missing && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.D) == math.Float64bits(b.D)
}

// TestDeriveColumn holds a derived column to the row evaluator: on
// every membership shape, each member row stores Bind(src).Fn(row)
// converted to the bound kind (Value.Double for a double, Value.String
// for a string, the integer payload for an int or date), each other
// row is missing, and the column is the stored type of its kind. The
// mixed-kind calls (if, coalesce, min, max) are typed with numeric
// promotion, so every accessor reads the one stored value.
func TestDeriveColumn(t *testing.T) {
	for _, tc := range []struct {
		src  string
		kind table.Kind
	}{
		{"gi * 2 + 1", table.KindInt},
		{"gi % 7", table.KindInt},
		{"floor(gd)", table.KindInt},
		{"gd / 3", table.KindDouble},
		{"sqrt(gd - 50)", table.KindDouble},
		{"gt", table.KindDate},
		{"toDate(gt + 1000)", table.KindDate},
		{`concat(gs, "!")`, table.KindString},
		{"lower(gx)", table.KindString},
		{`if(gi > 0, gs, "neg")`, table.KindString},
		// Mixed kinds: the bound kind is the promoted one.
		{"if(gi > 0, 1, 2.5)", table.KindDouble},
		{"if(gi > 0, gt, gi)", table.KindInt},
		{"if(gi > 0, gt, gt)", table.KindDate},
		{"coalesce(gi, gd)", table.KindDouble},
		{"coalesce(gd, gi, 7)", table.KindDouble},
		{"coalesce(gi, 3)", table.KindInt},
		{"min(gi, gd)", table.KindDouble},
		{"max(gt, gi)", table.KindInt},
	} {
		for _, p := range deriveTables() {
			c, err := Bind(tc.src, p)
			if err != nil {
				t.Fatalf("Bind(%q): %v", tc.src, err)
			}
			if c.Kind != tc.kind {
				t.Fatalf("%q binds as %v, want %v", tc.src, c.Kind, tc.kind)
			}
			col, err := DeriveColumn(tc.src, p)
			if err != nil {
				t.Fatal(err)
			}
			switch col.(type) {
			case *table.IntColumn, *table.DoubleColumn, *table.StringColumn:
			default:
				t.Fatalf("%q: derived a %T", tc.src, col)
			}
			if col.Kind() != tc.kind || col.Len() != p.Members().Max() {
				t.Fatalf("%q on %s: %v column of %d rows, want %v of %d", tc.src, p.ID(), col.Kind(), col.Len(), tc.kind, p.Members().Max())
			}
			member := table.NewBitset(col.Len())
			p.Members().Iterate(func(row int) bool {
				member.Set(row)
				return true
			})
			for row := 0; row < col.Len(); row++ {
				want := table.MissingValue(tc.kind)
				if member.Get(row) {
					switch v := c.Fn(row); {
					case v.Missing:
					case tc.kind == table.KindDouble:
						want = table.DoubleValue(v.Double())
					case tc.kind == table.KindString:
						want = table.StringValue(v.String())
					default:
						want = table.Value{Kind: tc.kind, I: v.I}
					}
				}
				if got := col.Value(row); !sameValue(got, want) {
					t.Fatalf("%q on %s row %d: stored %v, want %v", tc.src, p.ID(), row, got, want)
				}
			}
		}
	}
}

// TestMixedKindValuesReadAsBoundKind: before if and coalesce promoted
// their branches, "x + if(c, 1, 2.5)" was int-kinded and added the
// double branch's zero integer payload, and a derived if(c, 1, 2.5)
// answered 0, 2.5 or the double 2.5 depending on the accessor. A
// string among numbers does not bind, so no int-kinded call can return
// a double: "a % if(a > 0, 1, if(a > 0, "x", 2.5))" would otherwise
// divide by the double's zero integer payload. A constant call folds
// to a literal of its bound kind.
func TestMixedKindValuesReadAsBoundKind(t *testing.T) {
	tbl := exprTestTable(t) // a = 10, -3, missing, 100
	for _, src := range []string{
		`a % if(a > 0, 1, if(a > 0, "x", 2.5))`,
		`a % if(a > 0, 1, if(a > 0, "x", 2.5)) > 0`,
		`if(a > 0, 1, if(a > 0, "x", 2.5))`,
	} {
		if _, err := Bind(src, tbl); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
		if _, err := Select(src, tbl); err == nil {
			t.Errorf("Select(%q) should fail", src)
		}
		if _, err := DeriveColumn(src, tbl); err == nil {
			t.Errorf("DeriveColumn(%q) should fail", src)
		}
	}
	for src, want := range map[string]table.Kind{
		"if(1, 1, 2.5)":             table.KindDouble,
		"coalesce(3, 2.5)":          table.KindDouble,
		"min(1, 2.5)":               table.KindDouble,
		`min("b", "a")`:             table.KindString,
		`if(a > 0, "x", lower(s))`:  table.KindString,
		"if(a > 0, toDate(a), a)":   table.KindInt,
		"max(toDate(a), toDate(a))": table.KindDate,
	} {
		if c, err := Bind(src, tbl); err != nil || c.Kind != want {
			t.Errorf("Bind(%q): kind %v, err %v; want %v", src, c.Kind, err, want)
		}
	}
	if got := evalAt(t, "if(1, 1, 2.5)", 0); !sameValue(got, table.DoubleValue(1)) {
		t.Errorf("if(1, 1, 2.5) folds to %v, want the double 1", got)
	}
	if got := evalAt(t, "a + if(a > 0, 1, 2.5)", 1); !sameValue(got, table.DoubleValue(-0.5)) {
		t.Errorf("a + if(a > 0, 1, 2.5) at a = -3: %v, want -0.5", got)
	}
	if got := evalAt(t, "a % coalesce(b, 2)", 0); !sameValue(got, table.DoubleValue(0)) {
		t.Errorf("a %% coalesce(b, 2) at a = 10, b = 2.5: %v, want 0", got)
	}
	col, err := DeriveColumn("if(a > 0, 1, 2.5)", tbl)
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range []float64{1, 2.5, 2.5, 1} {
		if got := col.Value(row); !sameValue(got, table.DoubleValue(want)) {
			t.Errorf("row %d: %v, want %g", row, got, want)
		}
	}
}

// checkDerivedSelect derives e into a column of every test partition
// and requires a select over it, "dv rest", to be the membership the
// row evaluator builds for "(e) rest" over the partition itself — same
// rows, same representation. Sources that do not bind are skipped; the
// derive-then-select form must then fail alike.
func checkDerivedSelect(t *testing.T, e, rest string) {
	t.Helper()
	parts, _ := selectTables()
	for _, p := range parts {
		col, derr := DeriveColumn(e, p)
		c, err := Bind("("+e+")"+rest, p)
		if derr != nil {
			if err == nil {
				t.Fatalf("%q on %s: derive err %v, but (%s)%s binds", e, p.ID(), derr, e, rest)
			}
			return
		}
		dp, werr := p.WithColumn(p.ID(), "dv", col)
		if werr != nil {
			t.Fatal(werr)
		}
		got, selErr := Select("dv"+rest, dp)
		if (err == nil) != (selErr == nil) {
			t.Fatalf("dv%s with dv = %s on %s: Bind err %v, Select err %v", rest, e, p.ID(), err, selErr)
		}
		if err != nil {
			return
		}
		want := table.FilterMembership(p.Members(), func(row int) bool { return truthy(c.Fn(row)) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dv%s with dv = %s on %s: select %T of %d rows, row evaluator %T of %d rows",
				rest, e, p.ID(), got, got.Size(), want, want.Size())
		}
	}
}
