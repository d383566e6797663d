package expr

import (
	"strings"
	"testing"

	"repro/internal/table"
)

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

// TestSelectUsesPrimitive checks that the shapes the benchmark sends
// compile to the typed primitive rather than to a vector node.
func TestSelectUsesPrimitive(t *testing.T) {
	parts, _ := table.GenPartitions("prim", 1, 3000, 4)
	for _, src := range []string{"gd > -8", "gi <= 3", "-2.5 < gd", `gs == "w00000"`, "gt >= 1500000000000"} {
		c, err := Bind(src, parts[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scan.cond(c).(*constCmp); !ok {
			t.Errorf("%q compiled to %T, want the constant-compare primitive", src, scan.cond(c))
		}
	}
}
