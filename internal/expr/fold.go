package expr

import (
	"strconv"

	"repro/internal/table"
)

// Fold rewrites every column-free subexpression that evaluates to a
// present number or string into the literal it denotes, so "lat > -8"
// reaches the binder as a column compared to the constant -8 rather
// than to the operation Unary(-, 8). Evaluation is the vector nodes'
// own, run over a one-row batch (expressions are pure, so evaluating
// early changes nothing); subtrees that fail to bind, or evaluate to
// missing or to a date, are left for the binder to report or evaluate
// per batch.
func Fold(node Node) Node {
	switch n := node.(type) {
	case *UnaryNode:
		return foldConst(&UnaryNode{Op: n.Op, X: Fold(n.X)})
	case *BinaryNode:
		return foldConst(&BinaryNode{Op: n.Op, L: Fold(n.L), R: Fold(n.R)})
	case *CallNode:
		args := make([]Node, len(n.Args))
		for i, a := range n.Args {
			args[i] = Fold(a)
		}
		return foldConst(&CallNode{Func: n.Func, Args: args})
	default:
		return node
	}
}

func isLiteral(n Node) bool {
	switch n.(type) {
	case *NumberNode, *StringNode:
		return true
	}
	return false
}

// foldConst evaluates n when all of its (already folded) operands are
// literals.
func foldConst(n Node) Node {
	var operands []Node
	switch n := n.(type) {
	case *UnaryNode:
		operands = []Node{n.X}
	case *BinaryNode:
		operands = []Node{n.L, n.R}
	case *CallNode:
		operands = n.Args
	}
	for _, o := range operands {
		if !isLiteral(o) {
			return n
		}
	}
	// No operand references a column, so binding needs no table.
	c, err := BindNode(n, nil)
	if err != nil {
		return n
	}
	one := compiler{size: 1}
	switch v := one.value(c).eval(&batch{end: 1, n: 1}); {
	case v.miss != nil && v.miss[0]&1 != 0:
		return n
	case c.Kind == table.KindInt:
		i := v.ints[0]
		return &NumberNode{IsInt: true, I: i, F: float64(i), Text: strconv.FormatInt(i, 10)}
	case c.Kind == table.KindDouble:
		// The literal keeps the bound kind: if(1, 1, 2.5) folds to 1.0.
		d := v.floats[0]
		return &NumberNode{F: d, Text: strconv.FormatFloat(d, 'g', -1, 64)}
	case c.Kind == table.KindString:
		return &StringNode{S: v.strs[0]}
	default:
		return n
	}
}
