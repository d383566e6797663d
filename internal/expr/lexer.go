// Package expr implements the user-defined map language of the
// spreadsheet: small, pure expressions over row values used to derive
// new columns and to filter rows (paper §5.6 "User-defined maps"). It
// substitutes for Hillview's server-side JavaScript (Nashorn) with a
// deterministic, sandboxed evaluator: no loops, no state, no I/O — a
// function of the row that the engine can recompute at any time, which
// is exactly the property the soft-state memory design relies on.
//
// Expressions are written over column names, e.g.
//
//	DepDelay - ArrDelay
//	Origin == "SFO" && DepDelay > 30
//	year(FlightDate) * 100 + month(FlightDate)
//
// Booleans are represented as int 0/1 (the Value type has no bool kind);
// any non-zero number and any non-empty string is truthy. Missing values
// propagate through operators and functions, except isMissing, coalesce
// and the condition of if.
//
// # Pipeline
//
//   - Parse (parser.go): source → AST. Purely syntactic, except that
//     builtin names and arities are checked.
//   - Fold (fold.go): column-free subtrees that evaluate to a present
//     number or string become literals, so "lat > -8" is a column
//     against the constant -8, not against Unary(-, 8). Folding runs the
//     vector nodes over a one-row batch, so it cannot change a result.
//   - Bind (bind.go): AST + table → Compiled, the tree with names
//     resolved and every subexpression's kind inferred and checked.
//   - Compile (batch.go, eval.go): Compiled → vector nodes, the one
//     evaluator. They run over batches of up to table.SelectBatch rows,
//     driven by table.Select: Select keeps the rows where a predicate is
//     true, and DeriveColumn stores an expression's values in a column.
//
// # Vector nodes and missing values
//
// A value node yields a vector of its bound kind — int64 for int and
// date, float64 for double, string for string — plus missing words; a
// condition yields two disjoint word sets, T (true) and M (missing),
// false being neither. The rules are three-valued but not SQL's:
//
//   - arithmetic, negation, comparisons and builtins are missing where
//     an operand is; / and % are also missing where the divisor is zero;
//   - comparisons follow table.Value.Compare: one kind on both sides
//     compares in that kind, int and date with each other or with a
//     double as float64;
//   - !x is missing where x is;
//   - a && b is false where a is false; elsewhere it is missing where
//     either side is, else b. (So missing && false is missing.)
//   - a || b is true where a is true; elsewhere missing where either
//     side is, else b.
//   - if(c, a, b) takes b where c is false or missing;
//   - a filter keeps the rows where the predicate is true, dropping
//     false and missing alike.
//
// Every node yields its bound kind, and an operand of another kind is
// converted to the kind its consumer reads: an int or date widens to a
// double, a double truncates to an int, a number renders as
// table.Value.String does, and a string reads as the number zero. Three
// edges follow from that rule:
//
//   - if, coalesce, min and max read every value argument as the bound
//     kind, so an int past 2⁵³ under a double-kinded call rounds, and
//     min and max of an int and a date compare as int64;
//   - len of a number is the length of its rendering;
//   - substr's start and length truncate a double toward zero.
//
// A column compared with a literal compiles to the typed primitive
// table.ConstCompare (string literals become a code threshold in the
// column's sorted dictionary). A string column is otherwise read as
// dict[codes[row]], and string functions run once per row.
package expr

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokNumber
	tokString
	tokIdent
	tokOp     // operators and punctuation
	tokLParen // (
	tokRParen // )
	tokComma
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer splits expression source into tokens.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '"' || c == '\'':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c == '(':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokLParen, text: "(", pos: start})
		case c == ')':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokRParen, text: ")", pos: start})
		case c == ',':
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokComma, text: ",", pos: start})
		default:
			op := l.lexOp()
			if op == "" {
				return nil, fmt.Errorf("expr: unexpected character %q at %d", c, start)
			}
			l.tokens = append(l.tokens, token{kind: tokOp, text: op, pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
			return
		}
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		case '\\':
			l.pos++
			if l.pos >= len(l.src) {
				return fmt.Errorf("expr: unterminated escape at %d", start)
			}
			switch e := l.src[l.pos]; e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			default:
				return fmt.Errorf("expr: unknown escape \\%c at %d", e, l.pos)
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("expr: unterminated string at %d", start)
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

// lexOp recognizes the longest operator at the cursor.
func (l *lexer) lexOp() string {
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=", "&&", "||":
		l.pos += 2
		return two
	}
	switch c := l.src[l.pos]; c {
	case '+', '-', '*', '/', '%', '<', '>', '!':
		l.pos++
		return string(c)
	}
	return ""
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
