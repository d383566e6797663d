package expr

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// Node is an expression AST node.
type Node interface {
	// String renders the node as parseable source.
	String() string
}

// NumberNode is a numeric literal; Int is true when the literal had no
// fractional or exponent part.
type NumberNode struct {
	IsInt bool
	I     int64
	F     float64
	Text  string
}

// String implements Node.
func (n *NumberNode) String() string { return n.Text }

// Value returns the literal as a constant Value: KindInt for integer
// literals, KindDouble otherwise.
func (n *NumberNode) Value() table.Value {
	if n.IsInt {
		return table.IntValue(n.I)
	}
	return table.DoubleValue(n.F)
}

// StringNode is a string literal.
type StringNode struct{ S string }

// String implements Node.
func (n *StringNode) String() string { return fmt.Sprintf("%q", n.S) }

// ColumnNode references a column by name.
type ColumnNode struct{ Name string }

// String implements Node.
func (n *ColumnNode) String() string { return n.Name }

// UnaryNode is negation or logical not.
type UnaryNode struct {
	Op string // "-" or "!"
	X  Node
}

// String implements Node.
func (n *UnaryNode) String() string { return n.Op + "(" + n.X.String() + ")" }

// BinaryNode is an infix operator application.
type BinaryNode struct {
	Op   string
	L, R Node
}

// String implements Node.
func (n *BinaryNode) String() string {
	return "(" + n.L.String() + " " + n.Op + " " + n.R.String() + ")"
}

// CallNode is a builtin function application.
type CallNode struct {
	Func string
	Args []Node
}

// String implements Node.
func (n *CallNode) String() string {
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return n.Func + "(" + strings.Join(parts, ", ") + ")"
}
