package expr_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/expr/exprtest"
	"repro/internal/table"
)

// selectTables are the partitions every batch-vs-row comparison runs
// over: three table.GenPartitions draws, which between them cover every
// membership representation (full, bitmap, sparse, clustered, empty),
// missing masks on every column kind, small and large dictionaries, and
// the double column "gc". A derived string column "gx" joins them.
var selectTables = sync.OnceValues(func() ([]*table.Table, table.GenInfo) {
	var parts []*table.Table
	var info table.GenInfo
	for seed := uint64(1); seed <= 3; seed++ {
		ps, in := table.GenPartitions(fmt.Sprintf("sel%d", seed), seed, 3000, 4)
		if seed == 1 {
			info = in
		}
		for _, p := range ps {
			col, err := expr.DeriveColumn(`concat(gs, "!")`, p)
			if err != nil {
				panic(err)
			}
			p, err = p.WithColumn(p.ID(), "gx", col)
			if err != nil {
				panic(err)
			}
			parts = append(parts, p)
		}
	}
	return parts, info
})

// checkSelect requires the batch selection of src to be the membership
// the row evaluator (package exprtest) builds — same rows, same
// representation — on every test partition. Sources that do not parse
// or bind are skipped (the fuzzer mutates text freely); both forms must
// then fail alike.
func checkSelect(t *testing.T, src string) {
	t.Helper()
	parts, _ := selectTables()
	for _, p := range parts {
		want, err := exprtest.Filter(src, p)
		got, selErr := expr.Select(src, p)
		if (err == nil) != (selErr == nil) {
			t.Fatalf("%q on %s: oracle err %v, Select err %v", src, p.ID(), err, selErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q on %s (%T parent): batch selection %T of %d rows, row evaluator %T of %d rows",
				src, p.ID(), p.Members(), got, got.Size(), want, want.Size())
		}
	}
}

// exprGen draws expression sources from a small grammar over the
// generated schema: gi int, gd double, gs string, gt date, gc double,
// gx derived string.
type exprGen struct {
	r    *rand.Rand
	info table.GenInfo
}

func (g *exprGen) pick(alts ...string) string { return alts[g.r.IntN(len(alts))] }

func (g *exprGen) intLit() string {
	span := g.info.IntHi - g.info.IntLo
	return g.pick("0", "1", "-1", "7",
		fmt.Sprint(g.info.IntLo-1), fmt.Sprint(g.info.IntLo+g.r.Int64N(span)), fmt.Sprint(g.info.IntHi))
}

func (g *exprGen) doubleLit() string {
	return g.pick("0.0", "0.5", "-2.25", "1e300",
		fmt.Sprintf("%.3f", g.info.DoubleLo+g.r.Float64()*(g.info.DoubleHi-g.info.DoubleLo)))
}

func (g *exprGen) num(depth int) string {
	if depth <= 0 || g.r.IntN(3) == 0 {
		return g.pick("gi", "gd", "gt", "gc", g.intLit(), g.doubleLit(),
			fmt.Sprint(g.info.DateLo+g.r.Int64N(g.info.DateHi-g.info.DateLo)))
	}
	switch g.r.IntN(10) {
	case 0:
		return "-" + g.num(depth-1)
	case 1:
		return "(" + g.cond(depth-1) + ")"
	case 2:
		return g.pick("abs", "floor", "ceil", "round", "sqrt", "exp", "log", "year", "month", "day", "hour",
			"minute", "weekday", "toInt", "toDouble", "toDate") + "(" + g.num(depth-1) + ")"
	case 3:
		return g.pick("len(gs)", "len(gx)", "toInt(gs)", "toDouble(gx)", "if(isMissing(gd), gi, gd)", "coalesce(gi, 3)", "min(gi, gd)")
	case 4:
		// Calls that return an argument, over mixed kinds, and calls
		// over strings.
		switch g.r.IntN(4) {
		case 0:
			return "if(" + g.cond(depth-1) + ", " + g.num(depth-1) + ", " + g.num(depth-1) + ")"
		case 1:
			return "coalesce(" + g.num(depth-1) + ", " + g.num(depth-1) + ", " + g.num(0) + ")"
		case 2:
			return g.pick("min", "max", "pow") + "(" + g.num(depth-1) + ", " + g.num(depth-1) + ")"
		default:
			return g.pick("len", "toInt", "toDouble") + "(" + g.str(depth-1) + ")"
		}
	default:
		return "(" + g.num(depth-1) + " " + g.pick("+", "-", "*", "/", "%") + " " + g.num(depth-1) + ")"
	}
}

func (g *exprGen) str(depth int) string {
	if depth <= 0 || g.r.IntN(3) == 0 {
		dict := g.info.DictValues
		return g.pick("gs", "gx", "lower(gs)", `""`, `"w"`, `"zzz"`, `" W0 "`,
			fmt.Sprintf("%q", dict[g.r.IntN(len(dict))]), fmt.Sprintf("%q", dict[g.r.IntN(len(dict))]+"x"))
	}
	switch g.r.IntN(7) {
	case 0:
		return g.pick("lower", "upper", "trim") + "(" + g.str(depth-1) + ")"
	case 1:
		return "substr(" + g.str(depth-1) + ", " + g.num(0) + ", " + g.pick("0", "2", "-1", "2.5", g.num(0)) + ")"
	case 2:
		return g.pick("concat(gs, gx)", "concat("+g.str(depth-1)+", "+g.str(depth-1)+", gs)", g.str(depth-1)+" + "+g.str(depth-1))
	case 3:
		return "toString(" + g.num(depth-1) + ")"
	case 4:
		return "if(" + g.cond(depth-1) + ", " + g.str(depth-1) + ", " + g.str(depth-1) + ")"
	default:
		return g.pick("min", "max", "coalesce") + "(" + g.str(depth-1) + ", " + g.str(depth-1) + ")"
	}
}

// value draws a derived column's expression: a number or a string.
func (g *exprGen) value(depth int) string {
	if g.r.IntN(3) == 0 {
		return g.str(depth)
	}
	return g.num(depth)
}

func (g *exprGen) cond(depth int) string {
	cmp := g.pick("<", "<=", "==", "!=", ">=", ">")
	if depth <= 0 {
		return g.num(0) + " " + cmp + " " + g.num(0)
	}
	switch g.r.IntN(9) {
	case 0, 1:
		return "(" + g.cond(depth-1) + " " + g.pick("&&", "||") + " " + g.cond(depth-1) + ")"
	case 2:
		return "!(" + g.cond(depth-1) + ")"
	case 3:
		return g.str(depth-1) + " " + cmp + " " + g.str(depth-1)
	case 4:
		return g.pick("isMissing(gd)", "contains(gs, \"1\")", "startsWith(gx, \"w0\")", "endsWith("+g.str(depth-1)+", \"1\")",
			"contains("+g.str(depth-1)+", "+g.str(0)+")", "gs", "gi", "gc", g.str(depth-1))
	default:
		return g.num(depth-1) + " " + cmp + " " + g.num(depth-1)
	}
}

// selectCorpus are hand-written sources for the cases the vector nodes
// exist for; the fuzz target replays them, and its testdata corpus adds
// more.
var selectCorpus = []string{
	// stored column against a constant, every kind pairing
	"gi > 3", "gi <= 2.5", "3 > gi", "gd >= 7", "gd != -1.5", "gt < 1500000500000", "gt == gt",
	`gs == "w00001"`, `gs < "w00001x"`, `"w" <= gs`, `gs != "absent"`, `gs > ""`,
	// unary-minus constants must reach the primitive folded
	"gi > -8", "gd < -(2 + 0.5)", "-3 <= gi", "gi > - - 4",
	// mixed int/double vectors and arithmetic
	"gi < gd", "gi + 1 > gd * 2", "gi * gi - gi >= gt % 7", "gd / gi > 0.5", "gi % 3 == 1", "gi / 0 > 1", "gi % (gi - gi) == 0",
	"-gt < -gi", "gt - gt == 0", "(gi > 0) + (gd > 0) == 2", "(gi > 1) == (gd > 1)",
	// three-valued logic with missing on either side
	"gi > 0 && gd > 0", "gi > 0 || gd > 0", "!(gi > 0)", "!(gi > 0 && gd > 0) || gt > 0", "!gi", "gi && gd", "gs || gi",
	"gi > 1e300 && gd > 0", "gi < 1e300 || gd > 0", "isMissing(gi) || gd < 0", "!isMissing(gd) && !(gd > 0)",
	// builtins and string operators in subtrees
	"abs(gi) > 2 && gd < 50", "year(gt) * 100 + month(gt) > 201707", "sqrt(gd) < 3 || gi == 0", "len(gs) == 6", `lower(gs) == "w00000"`,
	`contains(gs, "9") && gi >= 0`, "coalesce(gi, 0) + 1 > gd", `if(gi > 0, gd, gc) > 10`, "toInt(gs) > 0", "log(gd) > 1",
	`gi % if(gi > 0, 1, if(gi > 0, "x", 2.5)) > 0`, "gi % if(gi > 0, 1, 2.5) > 0", `min(gs, gx) == "w00000"`,
	`gs + gx > "w00001"`, `substr(gs, 1, 3) == "000"`, `endsWith(gx, "!")`, `upper(gs) != gs`, `len(gi) > 2`, `toString(gd) < "5"`,
	// derived columns
	"gc > 10", "gc == gc", "gc * 2 < gd", `gx == "w00000!"`, `gx > gs`, "gc > 5 && gi < 3",
	// constants and folding
	"1", "0", `"x"`, `""`, "1 < 2", "1 / 0 > 0", `"a" + "b" == "ab"`, "gi > 2 + 3 * 4",
}

func FuzzExprSelect(f *testing.F) {
	for i, src := range selectCorpus {
		f.Add(src, uint64(i))
	}
	_, info := selectTables()
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		if len(src) < 200 && strings.Count(src, "(") < 20 {
			checkSelect(t, src)
		}
		g := &exprGen{r: rand.New(rand.NewPCG(seed, 0x5e1ec7)), info: info}
		checkSelect(t, g.cond(1+int(seed%3)))
		// Derive then select: a filter over a derived column is the row
		// evaluator's filter over its expression.
		checkDerivedSelect(t, g.num(1+int(seed%3)), " "+g.pick("<", "<=", "==", "!=", ">=", ">")+" "+g.num(0))
	})
}

// TestSelectGrammar runs the grammar long enough under plain go test to
// reach every production at every depth.
func TestSelectGrammar(t *testing.T) {
	_, info := selectTables()
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		g := &exprGen{r: rand.New(rand.NewPCG(seed, 77)), info: info}
		checkSelect(t, g.cond(int(seed%4)))
	}
}

// TestFold pins the constant folder: what becomes a literal, and what
// is left for the binder.
func TestFold(t *testing.T) {
	for src, want := range map[string]string{
		"-8":               "-8",
		"lat > -8":         "(lat > -8)",
		"- - 4":            "4",
		"2 + 3 * 4":        "14",
		"1 / 4":            "0.25",
		"1 / 0":            "(1 / 0)", // missing: not a literal
		`"a" + "b"`:        `"ab"`,
		`"a" - 1`:          `("a" - 1)`, // bind error: left to report
		"x + (1 + 2)":      "(x + 3)",
		"abs(-2) + len(s)": "(2 + len(s))",
		"toDate(5)":        "toDate(5)", // dates have no literal
		"1 < 2 && x":       "(1 && x)",
	} {
		n, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := expr.Fold(n).String(); got != want {
			t.Errorf("Fold(%q) = %s, want %s", src, got, want)
		}
	}
}
