package expr

import (
	"fmt"

	"repro/internal/table"
)

// Compiled is an expression bound to a table: every subexpression keeps
// its AST node, its inferred result kind, its bound operands and the
// column a reference resolved to. The batch compiler walks it to build
// the vector nodes that evaluate it, so it needs no second name or kind
// resolution.
type Compiled struct {
	Kind table.Kind
	Node Node
	Args []*Compiled  // bound operands, in AST order
	Col  table.Column // the column a ColumnNode resolved to
}

// Bind parses, constant-folds and binds src against a table.
func Bind(src string, t *table.Table) (*Compiled, error) {
	node, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return BindNode(Fold(node), t)
}

// BindNode binds an AST against a table, resolving column references
// and checking kinds.
func BindNode(node Node, t *table.Table) (*Compiled, error) {
	c := &Compiled{Node: node}
	var operands []Node
	switch n := node.(type) {
	case *NumberNode:
		c.Kind = n.Value().Kind
		return c, nil
	case *StringNode:
		c.Kind = table.KindString
		return c, nil
	case *ColumnNode:
		col, err := t.Column(n.Name)
		if err != nil {
			return nil, err
		}
		c.Kind, c.Col = col.Kind(), col
		return c, nil
	case *UnaryNode:
		operands = []Node{n.X}
	case *BinaryNode:
		operands = []Node{n.L, n.R}
	case *CallNode:
		operands = n.Args
	default:
		return nil, fmt.Errorf("expr: unknown node %T", node)
	}
	kinds := make([]table.Kind, len(operands))
	for i, o := range operands {
		a, err := BindNode(o, t)
		if err != nil {
			return nil, err
		}
		c.Args = append(c.Args, a)
		kinds[i] = a.Kind
	}
	var err error
	switch n := node.(type) {
	case *UnaryNode:
		c.Kind, err = unaryKind(n.Op, kinds[0])
	case *BinaryNode:
		c.Kind, err = binaryKind(n.Op, kinds[0], kinds[1])
	case *CallNode:
		if c.Kind = builtins[n.Func].kind(kinds); c.Kind == table.KindNone {
			err = fmt.Errorf("expr: %s over mixed kinds %v", n.Func, kinds)
		}
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func unaryKind(op string, x table.Kind) (table.Kind, error) {
	switch op {
	case "-":
		if !x.Numeric() {
			return table.KindNone, fmt.Errorf("expr: unary - over %v", x)
		}
		return numKind([]table.Kind{x}), nil
	case "!":
		return table.KindInt, nil
	}
	return table.KindNone, fmt.Errorf("expr: unknown unary %q", op)
}

// binaryKind types an operator: + - * % over numbers promote as numKind
// does, / is always a double (as in JavaScript, the language this
// substitutes for), + over two strings concatenates, comparisons need
// two numbers or two strings, and && || take any kinds.
func binaryKind(op string, l, r table.Kind) (table.Kind, error) {
	bothNumeric := l.Numeric() && r.Numeric()
	bothString := l == table.KindString && r == table.KindString
	switch op {
	case "+", "-", "*", "%", "/":
		switch {
		case op == "+" && bothString:
			return table.KindString, nil
		case !bothNumeric:
			return table.KindNone, fmt.Errorf("expr: %s over %v and %v", op, l, r)
		case op == "/":
			return table.KindDouble, nil
		}
		return numKind([]table.Kind{l, r}), nil
	case "==", "!=", "<", "<=", ">", ">=":
		if !bothNumeric && !bothString {
			return table.KindNone, fmt.Errorf("expr: %s over %v and %v", op, l, r)
		}
		return table.KindInt, nil
	case "&&", "||":
		return table.KindInt, nil
	}
	return table.KindNone, fmt.Errorf("expr: unknown operator %q", op)
}
