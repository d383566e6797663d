package expr

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/table"
)

func exprTestTable(t *testing.T) *table.Table {
	t.Helper()
	schema := table.NewSchema(
		table.ColumnDesc{Name: "a", Kind: table.KindInt},
		table.ColumnDesc{Name: "b", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "d", Kind: table.KindDate},
	)
	b := table.NewBuilder(schema, 4)
	when := time.Date(2019, 7, 10, 14, 30, 0, 0, time.UTC)
	b.AppendRow(table.Row{table.IntValue(10), table.DoubleValue(2.5), table.StringValue("SFO"), table.DateValue(when)})
	b.AppendRow(table.Row{table.IntValue(-3), table.DoubleValue(0), table.StringValue("jfk"), table.DateValue(when.AddDate(0, 1, 5))})
	b.AppendRow(table.Row{table.MissingValue(table.KindInt), table.DoubleValue(7), table.StringValue(""), table.DateValue(when)})
	b.AppendRow(table.Row{table.IntValue(100), table.MissingValue(table.KindDouble), table.MissingValue(table.KindString), table.DateValue(when)})
	return b.Freeze("expr-test")
}

// evalAt binds src and evaluates at one row.
func evalAt(t *testing.T, src string, row int) table.Value {
	t.Helper()
	tbl := exprTestTable(t)
	c, err := Bind(src, tbl)
	if err != nil {
		t.Fatalf("Bind(%q): %v", src, err)
	}
	return c.Fn(row)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		row  int
		want table.Value
	}{
		{"a + 5", 0, table.IntValue(15)},
		{"a - 20", 0, table.IntValue(-10)},
		{"a * 2", 1, table.IntValue(-6)},
		{"a + b", 0, table.DoubleValue(12.5)},
		{"a / 4", 0, table.DoubleValue(2.5)}, // division is always double
		{"a % 3", 0, table.IntValue(1)},
		{"-a", 0, table.IntValue(-10)},
		{"2 + 3 * 4", 0, table.IntValue(14)},       // precedence
		{"(2 + 3) * 4", 0, table.IntValue(20)},     // parens
		{"10.5 % 3", 0, table.DoubleValue(1.5)},    // float mod
		{"1e2 + 0.5", 0, table.DoubleValue(100.5)}, // scientific literal
	}
	for _, c := range cases {
		got := evalAt(t, c.src, c.row)
		if got.Missing || got.Compare(c.want) != 0 {
			t.Errorf("%q @ row %d = %v, want %v", c.src, c.row, got, c.want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		row  int
		want int64
	}{
		{"a > 5", 0, 1},
		{"a > 5", 1, 0},
		{"a == 10", 0, 1},
		{"a != 10", 0, 0},
		{"a <= -3", 1, 1},
		{"s == \"SFO\"", 0, 1},
		{"s < \"a\"", 0, 1}, // uppercase sorts before lowercase
		{"a > 0 && b > 1", 0, 1},
		{"a > 0 && b > 100", 0, 0},
		{"a > 1000 || b > 1", 0, 1},
		{"!(a > 5)", 0, 0},
		{"!0", 0, 1},
	}
	for _, c := range cases {
		got := evalAt(t, c.src, c.row)
		if got.Missing || got.I != c.want {
			t.Errorf("%q @ row %d = %v, want %d", c.src, c.row, got, c.want)
		}
	}
}

func TestMissingPropagation(t *testing.T) {
	// Row 2 has missing a; row 3 missing b and s.
	for _, src := range []string{"a + 1", "a > 5", "-a", "abs(a)", "a + b"} {
		if got := evalAt(t, src, 2); !got.Missing {
			t.Errorf("%q with missing operand = %v, want missing", src, got)
		}
	}
	// Short-circuit still decides when possible.
	if got := evalAt(t, "b > 100 && a > 5", 2); got.Missing || got.I != 0 {
		t.Errorf("short-circuit && = %v, want 0", got)
	}
	if got := evalAt(t, "b > 1 || a > 5", 2); got.Missing || got.I != 1 {
		t.Errorf("short-circuit || = %v, want 1", got)
	}
	// Undecidable when the decider is missing.
	if got := evalAt(t, "a > 5 && b > 1", 2); !got.Missing {
		t.Errorf("missing && = %v, want missing", got)
	}
	// isMissing and coalesce see missing values.
	if got := evalAt(t, "isMissing(a)", 2); got.I != 1 {
		t.Errorf("isMissing = %v", got)
	}
	if got := evalAt(t, "isMissing(a)", 0); got.I != 0 {
		t.Errorf("isMissing = %v", got)
	}
	if got := evalAt(t, "coalesce(a, 42)", 2); got.Missing || got.I != 42 {
		t.Errorf("coalesce = %v", got)
	}
	// Division by zero is missing.
	if got := evalAt(t, "a / b", 1); !got.Missing {
		t.Errorf("division by zero = %v, want missing", got)
	}
}

func TestStringFunctions(t *testing.T) {
	cases := []struct {
		src  string
		row  int
		want string
	}{
		{"lower(s)", 0, "sfo"},
		{"upper(s)", 1, "JFK"},
		{"s + \"-x\"", 0, "SFO-x"},
		{"concat(s, \"/\", s)", 0, "SFO/SFO"},
		{"substr(s, 0, 2)", 0, "SF"},
		{"substr(s, 1, 100)", 0, "FO"},
		{"trim(\"  hi  \")", 0, "hi"},
		{"toString(a)", 0, "10"},
		{"if(a > 5, \"big\", \"small\")", 0, "big"},
		{"if(a > 5, \"big\", \"small\")", 1, "small"},
	}
	for _, c := range cases {
		got := evalAt(t, c.src, c.row)
		if got.Missing || got.S != c.want {
			t.Errorf("%q @ row %d = %v, want %q", c.src, c.row, got, c.want)
		}
	}
	if got := evalAt(t, "len(s)", 0); got.I != 3 {
		t.Errorf("len = %v", got)
	}
	if got := evalAt(t, "contains(s, \"FO\")", 0); got.I != 1 {
		t.Errorf("contains = %v", got)
	}
	if got := evalAt(t, "startsWith(s, \"SF\") && endsWith(s, \"O\")", 0); got.I != 1 {
		t.Errorf("starts/ends = %v", got)
	}
}

func TestDateFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"year(d)", 2019},
		{"month(d)", 7},
		{"day(d)", 10},
		{"hour(d)", 14},
		{"minute(d)", 30},
		{"weekday(d)", int64(time.Wednesday)},
	}
	for _, c := range cases {
		got := evalAt(t, c.src, 0)
		if got.Missing || got.I != c.want {
			t.Errorf("%q = %v, want %d", c.src, got, c.want)
		}
	}
	// Date arithmetic: dates are numeric (millis).
	if got := evalAt(t, "d - d", 0); got.Missing || got.I != 0 {
		t.Errorf("d - d = %v", got)
	}
}

func TestConversions(t *testing.T) {
	if got := evalAt(t, "toInt(\"42\")", 0); got.I != 42 {
		t.Errorf("toInt = %v", got)
	}
	if got := evalAt(t, "toInt(\"4x\")", 0); !got.Missing {
		t.Errorf("toInt of junk = %v, want missing", got)
	}
	if got := evalAt(t, "toDouble(\"2.5\")", 0); got.D != 2.5 {
		t.Errorf("toDouble = %v", got)
	}
	if got := evalAt(t, "toDouble(a)", 0); got.Kind != table.KindDouble || got.D != 10 {
		t.Errorf("toDouble(int) = %v", got)
	}
	if got := evalAt(t, "toDate(0)", 0); got.Kind != table.KindDate || got.I != 0 {
		t.Errorf("toDate = %v", got)
	}
	if got := evalAt(t, "year(toDate(0))", 0); got.I != 1970 {
		t.Errorf("year(epoch) = %v", got)
	}
}

func TestMathFunctions(t *testing.T) {
	if got := evalAt(t, "abs(a)", 1); got.I != 3 {
		t.Errorf("abs = %v", got)
	}
	if got := evalAt(t, "abs(-2.5)", 0); got.D != 2.5 {
		t.Errorf("abs double = %v", got)
	}
	if got := evalAt(t, "floor(b)", 0); got.I != 2 {
		t.Errorf("floor = %v", got)
	}
	if got := evalAt(t, "ceil(b)", 0); got.I != 3 {
		t.Errorf("ceil = %v", got)
	}
	if got := evalAt(t, "round(2.5)", 0); got.I != 3 {
		t.Errorf("round = %v", got)
	}
	if got := evalAt(t, "sqrt(16)", 0); got.D != 4 {
		t.Errorf("sqrt = %v", got)
	}
	if got := evalAt(t, "pow(2, 10)", 0); got.D != 1024 {
		t.Errorf("pow = %v", got)
	}
	if got := evalAt(t, "log(exp(1))", 0); math.Abs(got.D-1) > 1e-12 {
		t.Errorf("log/exp = %v", got)
	}
	if got := evalAt(t, "min(a, 3)", 0); got.I != 3 {
		t.Errorf("min = %v", got)
	}
	if got := evalAt(t, "max(a, b)", 0); got.Double() != 10 {
		t.Errorf("max = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a +",
		"(a",
		"a b",
		"nosuchfn(1)",
		"min(1)",     // arity
		"min(1,2,3)", // arity
		"\"unterminated",
		"'bad\\q'",
		"a @ b",
		"1.2.3 +",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestBindErrors(t *testing.T) {
	tbl := exprTestTable(t)
	bad := []string{
		"nosuchcol + 1",
		"s - 1",      // string arithmetic
		"s * s",      // string multiply
		"a == s",     // cross-kind comparison
		"-s",         // negate string
		"s + 1",      // string + number
		"a && richc", // unknown column inside logic
		// a call that returns an argument: a string among numbers
		`if(a > 0, "x", 2.5)`,
		`if(a > 0, 1, if(a > 0, "x", 2.5))`,
		"coalesce(s, a)",
		"min(a, s)",
		`max("x", 1)`,
	}
	for _, src := range bad {
		if _, err := Bind(src, tbl); err == nil {
			t.Errorf("Bind(%q) should fail", src)
		}
	}
}

// predicate is the row-at-a-time form of a filter — the bound
// expression evaluated per row with missing treated as false. It is the
// oracle the batch compiler is tested against.
func predicate(t testing.TB, src string, tbl *table.Table) func(row int) bool {
	t.Helper()
	c, err := Bind(src, tbl)
	if err != nil {
		t.Fatalf("Bind(%q): %v", src, err)
	}
	return func(row int) bool { return truthy(c.Fn(row)) }
}

func TestPredicateAndDerive(t *testing.T) {
	tbl := exprTestTable(t)
	pred := predicate(t, "a > 0", tbl)
	// Rows 0 and 3 have a > 0; row 2 has missing a (excluded).
	want := map[int]bool{0: true, 1: false, 2: false, 3: true}
	for row, w := range want {
		if pred(row) != w {
			t.Errorf("pred(%d) = %t, want %t", row, pred(row), w)
		}
	}
	filtered := tbl.Filter("f", pred)
	if filtered.NumRows() != 2 {
		t.Errorf("filtered rows = %d, want 2", filtered.NumRows())
	}
	sel, err := Select("a > 0", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel, filtered.Members()) {
		t.Errorf("Select = %#v, want %#v", sel, filtered.Members())
	}

	col, err := DeriveColumn("a * 2 + 1", tbl)
	if err != nil {
		t.Fatal(err)
	}
	if col.Kind() != table.KindInt || col.Len() != 4 {
		t.Fatalf("derived column kind/len = %v/%d", col.Kind(), col.Len())
	}
	if got := col.Value(0).I; got != 21 {
		t.Errorf("derived[0] = %d, want 21", got)
	}
	if !col.Value(2).Missing {
		t.Error("derived[2] should be missing")
	}
	t2, err := tbl.WithColumn("t2", "a2", col)
	if err != nil {
		t.Fatal(err)
	}
	if got := t2.MustColumn("a2").Value(3).I; got != 201 {
		t.Errorf("via table = %d, want 201", got)
	}
}

func TestASTString(t *testing.T) {
	// String() renders re-parseable source.
	srcs := []string{
		"a + b * 2",
		"if(a > 5, \"big\", lower(s))",
		"!(a == 1) || b < 2.5",
		"-a % 3",
	}
	for _, src := range srcs {
		n1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, n1.String(), err)
		}
		if n1.String() != n2.String() {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, n1.String(), n2.String())
		}
	}
}

func TestTruthiness(t *testing.T) {
	tbl := exprTestTable(t)
	// Empty string is falsy; non-empty truthy.
	pred := predicate(t, "s", tbl)
	if !pred(0) || pred(2) || pred(3) {
		t.Error("string truthiness wrong")
	}
	// Zero double is falsy.
	pred2 := predicate(t, "b", tbl)
	if pred2(1) || !pred2(2) {
		t.Error("numeric truthiness wrong")
	}
}

func TestLexerStrings(t *testing.T) {
	toks, err := lex(`"a\"b" 'c\n' x_1 <= 1.5e-3`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].text != `a"b` || toks[1].text != "c\n" {
		t.Errorf("escapes wrong: %q %q", toks[0].text, toks[1].text)
	}
	if toks[2].text != "x_1" || toks[3].text != "<=" || toks[4].text != "1.5e-3" {
		t.Errorf("tokens wrong: %+v", toks)
	}
	if !strings.Contains((&StringNode{S: "x"}).String(), "x") {
		t.Error("StringNode.String broken")
	}
}
