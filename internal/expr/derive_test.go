package expr_test

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/expr/exprtest"
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

// sameColumn reports how got differs from want, "" when it does not:
// the stored type, kind, missing mask, value bits (any NaN equals any
// NaN) and, for a string column, the dictionary in its order and the
// codes.
func sameColumn(got, want table.Column) string {
	if reflect.TypeOf(got) != reflect.TypeOf(want) || got.Kind() != want.Kind() || got.Len() != want.Len() {
		return "a " + got.Kind().String() + " column of another type or length"
	}
	switch w := want.(type) {
	case *table.IntColumn:
		g := got.(*table.IntColumn)
		if !reflect.DeepEqual(g.MissingMask(), w.MissingMask()) || !reflect.DeepEqual(g.Ints(), w.Ints()) {
			return "other ints or missing rows"
		}
	case *table.DoubleColumn:
		g := got.(*table.DoubleColumn)
		if !reflect.DeepEqual(g.MissingMask(), w.MissingMask()) {
			return "other missing rows"
		}
		for i, x := range w.Doubles() {
			y := g.Doubles()[i]
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return "other doubles"
			}
		}
	case *table.StringColumn:
		g := got.(*table.StringColumn)
		if !reflect.DeepEqual(g.MissingMask(), w.MissingMask()) || !reflect.DeepEqual(g.Dict(), w.Dict()) ||
			!reflect.DeepEqual(g.Codes(), w.Codes()) {
			return "another dictionary, other codes or other missing rows"
		}
	}
	return ""
}

// checkDerive requires DeriveColumn(src) to be the column the row
// evaluator stores, on every table. Sources that do not parse or bind
// are skipped; both forms must then fail alike.
func checkDerive(t *testing.T, src string, tables []*table.Table) {
	t.Helper()
	for _, p := range tables {
		want, err := exprtest.DeriveColumn(src, p)
		got, derr := expr.DeriveColumn(src, p)
		if (err == nil) != (derr == nil) {
			t.Fatalf("%q on %s: oracle err %v, DeriveColumn err %v", src, p.ID(), err, derr)
		}
		if err != nil {
			return
		}
		if diff := sameColumn(got, want); diff != "" {
			for row := 0; row < want.Len(); row++ {
				if g, w := got.Value(row), want.Value(row); !sameValue(g, w) && !(math.IsNaN(g.D) && math.IsNaN(w.D)) {
					t.Fatalf("%q on %s: %s; row %d stored %v, oracle %v", src, p.ID(), diff, row, g, w)
				}
			}
			t.Fatalf("%q on %s: %s", src, p.ID(), diff)
		}
	}
}

// TestDeriveColumn holds a derived column to the row evaluator on every
// membership shape: each member row stores the oracle's value converted
// to the bound kind, each other row is missing, and the column is the
// stored type of its kind. The mixed-kind calls (if, coalesce, min,
// max) are typed with numeric promotion, so every accessor reads the
// one stored value.
func TestDeriveColumn(t *testing.T) {
	tables := deriveTables()
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
		{`substr(gx, gi % 4, 3) + toString(gt)`, table.KindString},
		{"len(gd)", table.KindInt},
		// Mixed kinds: the bound kind is the promoted one.
		{"if(gi > 0, 1, 2.5)", table.KindDouble},
		{"if(gi > 0, gt, gi)", table.KindInt},
		{"if(gi > 0, gt, gt)", table.KindDate},
		{"coalesce(gi, gd)", table.KindDouble},
		{"coalesce(gd, gi, 7)", table.KindDouble},
		{"coalesce(gi, 3)", table.KindInt},
		{"min(gi, gd)", table.KindDouble},
		{"max(gt, gi)", table.KindInt},
		{"gd > 50 && gs < gx", table.KindInt},
	} {
		c, err := expr.Bind(tc.src, tables[0])
		if err != nil {
			t.Fatalf("Bind(%q): %v", tc.src, err)
		}
		if c.Kind != tc.kind {
			t.Fatalf("%q binds as %v, want %v", tc.src, c.Kind, tc.kind)
		}
		checkDerive(t, tc.src, tables)
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
		if _, err := expr.Bind(src, tbl); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
		if _, err := expr.Select(src, tbl); err == nil {
			t.Errorf("Select(%q) should fail", src)
		}
		if _, err := expr.DeriveColumn(src, tbl); err == nil {
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
		if c, err := expr.Bind(src, tbl); err != nil || c.Kind != want {
			t.Errorf("Bind(%q): %v; want kind %v", src, err, want)
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
	col, err := expr.DeriveColumn("if(a > 0, 1, 2.5)", tbl)
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range []float64{1, 2.5, 2.5, 1} {
		if got := col.Value(row); !sameValue(got, table.DoubleValue(want)) {
			t.Errorf("row %d: %v, want %g", row, got, want)
		}
	}
}

// TestVectorRules pins the conversion edges of the package comment, in
// the vector nodes and in the oracle: a call that returns an argument
// reads it as the bound kind, len measures a number's rendering, and
// substr truncates a double start and clamps a length past the end.
func TestVectorRules(t *testing.T) {
	tbl := exprTestTable(t) // a = 10, -3, missing, 100; s = "SFO", "jfk", "", missing
	for _, tc := range []struct {
		src  string
		row  int
		want table.Value
	}{
		// 2⁵³ + 1 is no double: as the bound kind of the if, it rounds.
		{"if(a > 0, 9007199254740993, 0.5) == 9007199254740993", 0, table.IntValue(1)},
		{"if(a > 0, 9007199254740993, 0.5) == 9007199254740992", 0, table.IntValue(1)},
		{"min(9007199254740993, toDate(9007199254740992))", 0, table.IntValue(9007199254740992)},
		{"len(a)", 0, table.IntValue(2)},
		{"len(b)", 0, table.IntValue(3)},
		{"substr(s, 1.9, 5)", 0, table.StringValue("FO")},
		{"substr(s, 1, 9223372036854775807)", 1, table.StringValue("fk")},
	} {
		if got := evalAt(t, tc.src, tc.row); !sameValue(got, tc.want) {
			t.Errorf("%s at row %d: %v, want %v", tc.src, tc.row, got, tc.want)
		}
		_, fn, err := exprtest.Bind(tc.src, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got := fn(tc.row); got.Compare(tc.want) != 0 {
			t.Errorf("oracle %s at row %d: %v, want %v", tc.src, tc.row, got, tc.want)
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
		col, derr := expr.DeriveColumn(e, p)
		want, err := exprtest.Filter("("+e+")"+rest, p)
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
		got, selErr := expr.Select("dv"+rest, dp)
		if (err == nil) != (selErr == nil) {
			t.Fatalf("dv%s with dv = %s on %s: oracle err %v, Select err %v", rest, e, p.ID(), err, selErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dv%s with dv = %s on %s: select %T of %d rows, row evaluator %T of %d rows",
				rest, e, p.ID(), got, got.Size(), want, want.Size())
		}
	}
}

// deriveCorpus are hand-written derive sources for the edges of the
// vector rules: toInt of NaN and of doubles past the int64 range, int %
// by zero, ints past 2⁵³ under a call promoted to double, and min/max
// of equal zeros of either sign (the first argument wins a tie).
var deriveCorpus = []string{
	"toInt(sqrt(gd - 1e9))", "toInt(gd * 1e300)", "toInt(-gd * 1e300)", "toInt(1e300)", "toInt(-1e300)", "toInt(log(gd - 50))",
	"gi % 0", "gi % (gi - gi)", "gi % if(gi > 0, 0, gi)", "gd % (gd - gd)",
	"if(gi > 0, 9007199254740993, 0.5)", "if(gi > 0, gi + 9007199254740993, gd) == gi + 9007199254740993",
	"coalesce(gi + 9007199254740993, gd)", "min(9007199254740993 + gi, gd)", "max(gt, gi * 4503599627370497)",
	"max(-0.0, gd - gd)", "min(gd - gd, -0.0)",
	`substr(gs, gd, gi)`, `substr(gx, 2, 0)`, `len(gd) + len(gt)`, `toString(gt) + toString(gd)`, `concat(gs, gx)`, `upper(trim(" " + gs))`,
}

func FuzzExprDerive(f *testing.F) {
	for i, src := range deriveCorpus {
		f.Add(src, uint64(i))
	}
	parts, info := selectTables()
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		if len(src) < 200 && strings.Count(src, "(") < 20 {
			checkDerive(t, src, parts)
		}
		g := &exprGen{r: rand.New(rand.NewPCG(seed, 0xde71e)), info: info}
		checkDerive(t, g.value(1+int(seed%3)), parts)
	})
}

// TestDeriveGrammar runs the derive grammar under plain go test.
func TestDeriveGrammar(t *testing.T) {
	parts, info := selectTables()
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		g := &exprGen{r: rand.New(rand.NewPCG(seed, 78)), info: info}
		checkDerive(t, g.value(int(seed%4)), parts)
	}
}
