package expr

import (
	"fmt"
	"math"

	"repro/internal/table"
)

// Compiled is an expression bound to a table: a pure per-row function
// plus its inferred result kind. DeriveColumn runs it once per member
// row to store a derived column (paper §5.6); a call that returns one
// of its arguments (if, coalesce, min, max) may yield a value of
// another numeric kind, which the stored column converts to Kind.
//
// A Compiled is also the bound tree the batch compiler walks: every
// subexpression keeps its AST node, its bound operands and the column a
// reference resolved to, so batch compilation needs no second name or
// kind resolution and any subtree's Fn is at hand as its row fallback.
type Compiled struct {
	Kind table.Kind
	Fn   func(row int) table.Value

	node Node
	args []*Compiled  // bound operands, in AST order
	col  table.Column // the column a ColumnNode resolved to
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
	c, err := bindNode(node, t)
	if err != nil {
		return nil, err
	}
	c.node = node
	return c, nil
}

func bindNode(node Node, t *table.Table) (*Compiled, error) {
	switch n := node.(type) {
	case *NumberNode:
		v := n.Value()
		return &Compiled{Kind: v.Kind, Fn: func(int) table.Value { return v }}, nil

	case *StringNode:
		v := table.StringValue(n.S)
		return &Compiled{Kind: table.KindString, Fn: func(int) table.Value { return v }}, nil

	case *ColumnNode:
		col, err := t.Column(n.Name)
		if err != nil {
			return nil, err
		}
		return &Compiled{Kind: col.Kind(), Fn: col.Value, col: col}, nil

	case *UnaryNode:
		x, err := BindNode(n.X, t)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "-":
			if !x.Kind.Numeric() {
				return nil, fmt.Errorf("expr: unary - over %v", x.Kind)
			}
			kind := x.Kind
			if kind == table.KindDate {
				kind = table.KindInt
			}
			return &Compiled{Kind: kind, args: []*Compiled{x}, Fn: func(row int) table.Value {
				v := x.Fn(row)
				if v.Missing {
					return table.MissingValue(kind)
				}
				if kind == table.KindDouble {
					return table.DoubleValue(-v.Double())
				}
				return table.IntValue(-v.I)
			}}, nil
		case "!":
			return &Compiled{Kind: table.KindInt, args: []*Compiled{x}, Fn: func(row int) table.Value {
				v := x.Fn(row)
				if v.Missing {
					return table.MissingValue(table.KindInt)
				}
				return boolValue(!truthy(v))
			}}, nil
		default:
			return nil, fmt.Errorf("expr: unknown unary %q", n.Op)
		}

	case *BinaryNode:
		l, err := BindNode(n.L, t)
		if err != nil {
			return nil, err
		}
		r, err := BindNode(n.R, t)
		if err != nil {
			return nil, err
		}
		c, err := bindBinary(n.Op, l, r)
		if err != nil {
			return nil, err
		}
		c.args = []*Compiled{l, r}
		return c, nil

	case *CallNode:
		spec := builtins[n.Func]
		args := make([]*Compiled, len(n.Args))
		kinds := make([]table.Kind, len(n.Args))
		for i, a := range n.Args {
			c, err := BindNode(a, t)
			if err != nil {
				return nil, err
			}
			args[i] = c
			kinds[i] = c.Kind
		}
		kind := spec.kind(kinds)
		if kind == table.KindNone {
			return nil, fmt.Errorf("expr: %s over mixed kinds %v", n.Func, kinds)
		}
		return &Compiled{Kind: kind, args: args, Fn: func(row int) table.Value {
			vals := make([]table.Value, len(args))
			for i, a := range args {
				vals[i] = a.Fn(row)
				if vals[i].Missing && !spec.passMissing {
					return table.MissingValue(kind)
				}
			}
			return spec.eval(vals)
		}}, nil

	default:
		return nil, fmt.Errorf("expr: unknown node %T", node)
	}
}

func bindBinary(op string, l, r *Compiled) (*Compiled, error) {
	bothNumeric := l.Kind.Numeric() && r.Kind.Numeric()
	bothString := l.Kind == table.KindString && r.Kind == table.KindString

	switch op {
	case "+":
		if bothString {
			return &Compiled{Kind: table.KindString, Fn: func(row int) table.Value {
				a, b := l.Fn(row), r.Fn(row)
				if a.Missing || b.Missing {
					return table.MissingValue(table.KindString)
				}
				return table.StringValue(a.S + b.S)
			}}, nil
		}
		fallthrough
	case "-", "*":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: %s over %v and %v", op, l.Kind, r.Kind)
		}
		kind := table.KindInt
		if l.Kind == table.KindDouble || r.Kind == table.KindDouble {
			kind = table.KindDouble
		}
		return &Compiled{Kind: kind, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(kind)
			}
			if kind == table.KindDouble {
				x, y := a.Double(), b.Double()
				switch op {
				case "+":
					return table.DoubleValue(x + y)
				case "-":
					return table.DoubleValue(x - y)
				default:
					return table.DoubleValue(x * y)
				}
			}
			x, y := a.I, b.I
			switch op {
			case "+":
				return table.IntValue(x + y)
			case "-":
				return table.IntValue(x - y)
			default:
				return table.IntValue(x * y)
			}
		}}, nil

	case "/":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: / over %v and %v", l.Kind, r.Kind)
		}
		// Division always yields a double (as in JavaScript, the language
		// this substitutes for); division by zero yields missing.
		return &Compiled{Kind: table.KindDouble, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing || b.Double() == 0 {
				return table.MissingValue(table.KindDouble)
			}
			return table.DoubleValue(a.Double() / b.Double())
		}}, nil

	case "%":
		if !bothNumeric {
			return nil, fmt.Errorf("expr: %% over %v and %v", l.Kind, r.Kind)
		}
		kind := table.KindInt
		if l.Kind == table.KindDouble || r.Kind == table.KindDouble {
			kind = table.KindDouble
		}
		return &Compiled{Kind: kind, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing || b.Double() == 0 {
				return table.MissingValue(kind)
			}
			if kind == table.KindDouble {
				return table.DoubleValue(math.Mod(a.Double(), b.Double()))
			}
			return table.IntValue(a.I % b.I)
		}}, nil

	case "==", "!=", "<", "<=", ">", ">=":
		if !bothNumeric && !bothString {
			return nil, fmt.Errorf("expr: %s over %v and %v", op, l.Kind, r.Kind)
		}
		return &Compiled{Kind: table.KindInt, Fn: func(row int) table.Value {
			a, b := l.Fn(row), r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			c := a.Compare(b)
			switch op {
			case "==":
				return boolValue(c == 0)
			case "!=":
				return boolValue(c != 0)
			case "<":
				return boolValue(c < 0)
			case "<=":
				return boolValue(c <= 0)
			case ">":
				return boolValue(c > 0)
			default:
				return boolValue(c >= 0)
			}
		}}, nil

	case "&&":
		return &Compiled{Kind: table.KindInt, Fn: func(row int) table.Value {
			a := l.Fn(row)
			if !a.Missing && !truthy(a) {
				return boolValue(false) // short-circuit
			}
			b := r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			return boolValue(truthy(b))
		}}, nil

	case "||":
		return &Compiled{Kind: table.KindInt, Fn: func(row int) table.Value {
			a := l.Fn(row)
			if !a.Missing && truthy(a) {
				return boolValue(true) // short-circuit
			}
			b := r.Fn(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			return boolValue(truthy(b))
		}}, nil

	default:
		return nil, fmt.Errorf("expr: unknown operator %q", op)
	}
}

// DeriveColumn binds src and evaluates it once per member row of t,
// storing the values, converted to the bound kind, in a column over t's
// physical rows. Rows outside the membership are missing.
func DeriveColumn(src string, t *table.Table) (table.Column, error) {
	c, err := Bind(src, t)
	if err != nil {
		return nil, err
	}
	n := t.Members().Max()
	b := table.NewColumnBuilder(c.Kind, n)
	t.Members().Iterate(func(row int) bool {
		for b.Len() < row {
			b.AppendMissing()
		}
		v := c.Fn(row)
		if c.Kind == table.KindDouble && !v.Missing {
			// A promoted call may return an int argument: if(c, 1, 2.5).
			v = table.DoubleValue(v.Double())
		}
		b.Append(v)
		return true
	})
	for b.Len() < n {
		b.AppendMissing()
	}
	return b.Freeze(), nil
}
