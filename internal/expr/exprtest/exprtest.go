// Package exprtest is the row-at-a-time reference evaluator of package
// expr: the tests' oracle for its vector nodes. It evaluates a bound
// tree one boxed table.Value per operand per row, with its own copy of
// every operator and builtin, so a filter, a derived column or a folded
// constant is checked against an evaluator that shares nothing with the
// one under test but name and kind resolution (expr.BindNode). It
// binds the unfolded tree, so the folder is checked too.
//
// No binary links it: filters and derives run only as vector nodes.
package exprtest

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/table"
)

// Bind parses src and binds it, unfolded, against t, returning the
// bound tree and its row evaluator.
func Bind(src string, t *table.Table) (*expr.Compiled, func(row int) table.Value, error) {
	node, err := expr.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	c, err := expr.BindNode(node, t)
	if err != nil {
		return nil, nil, err
	}
	return c, eval(c), nil
}

// Predicate is src as a row filter: true where it evaluates to a
// truthy value, false where it is falsy or missing.
func Predicate(src string, t *table.Table) (func(row int) bool, error) {
	_, fn, err := Bind(src, t)
	if err != nil {
		return nil, err
	}
	return func(row int) bool { return truthy(fn(row)) }, nil
}

// Filter is the membership of t's member rows that src keeps, built by
// table.FilterMembership over Predicate.
func Filter(src string, t *table.Table) (table.Membership, error) {
	pred, err := Predicate(src, t)
	if err != nil {
		return nil, err
	}
	return table.FilterMembership(t.Members(), pred), nil
}

// DeriveColumn evaluates src once per member row of t and stores the
// values, converted to the bound kind, through a column builder over
// t's physical rows. Rows outside the membership are missing.
func DeriveColumn(src string, t *table.Table) (table.Column, error) {
	c, fn, err := Bind(src, t)
	if err != nil {
		return nil, err
	}
	n := t.Members().Max()
	b := table.NewColumnBuilder(c.Kind, n)
	t.Members().Iterate(func(row int) bool {
		for b.Len() < row {
			b.AppendMissing()
		}
		b.Append(convert(fn(row), c.Kind))
		return true
	})
	for b.Len() < n {
		b.AppendMissing()
	}
	return b.Freeze(), nil
}

// truthy reports whether a value counts as true: non-zero numbers and
// non-empty strings. Missing values are not truthy.
func truthy(v table.Value) bool {
	if v.Missing {
		return false
	}
	if v.Kind == table.KindString {
		return v.S != ""
	}
	return v.Double() != 0
}

func boolValue(b bool) table.Value {
	if b {
		return table.IntValue(1)
	}
	return table.IntValue(0)
}

// convert reads a value as kind k: a double as Value.Double gives it,
// an int or a date with its payload, a string as Value.String renders
// it.
func convert(v table.Value, k table.Kind) table.Value {
	switch {
	case v.Missing:
		return table.MissingValue(k)
	case k == table.KindDouble:
		return table.DoubleValue(v.Double())
	case k == table.KindString:
		return table.StringValue(v.String())
	}
	return table.Value{Kind: k, I: v.I}
}

// eval returns the per-row evaluator of a bound tree.
func eval(c *expr.Compiled) func(row int) table.Value {
	args := make([]func(int) table.Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = eval(a)
	}
	kind := c.Kind
	switch n := c.Node.(type) {
	case *expr.NumberNode:
		v := n.Value()
		return func(int) table.Value { return v }
	case *expr.StringNode:
		v := table.StringValue(n.S)
		return func(int) table.Value { return v }
	case *expr.ColumnNode:
		return c.Col.Value
	case *expr.UnaryNode:
		x := args[0]
		if n.Op == "!" {
			return func(row int) table.Value {
				v := x(row)
				if v.Missing {
					return table.MissingValue(table.KindInt)
				}
				return boolValue(!truthy(v))
			}
		}
		return func(row int) table.Value {
			v := x(row)
			switch {
			case v.Missing:
				return table.MissingValue(kind)
			case kind == table.KindDouble:
				return table.DoubleValue(-v.Double())
			}
			return table.IntValue(-v.I)
		}
	case *expr.BinaryNode:
		return binary(n.Op, kind, args[0], args[1])
	case *expr.CallNode:
		spec, ok := calls[n.Func]
		if !ok {
			panic(fmt.Sprintf("exprtest: no reference for %s", n.Func))
		}
		return func(row int) table.Value {
			vals := make([]table.Value, len(args))
			for i, a := range args {
				vals[i] = a(row)
				if spec.branch && i >= spec.firstBranch {
					vals[i] = convert(vals[i], kind)
				}
				if vals[i].Missing && !spec.passMissing {
					return table.MissingValue(kind)
				}
			}
			return spec.eval(vals, kind)
		}
	}
	panic(fmt.Sprintf("exprtest: unknown node %T", c.Node))
}

func binary(op string, kind table.Kind, l, r func(int) table.Value) func(int) table.Value {
	switch op {
	case "&&", "||":
		or := op == "||"
		return func(row int) table.Value {
			a := l(row)
			if !a.Missing && truthy(a) == or {
				return boolValue(or) // short-circuit
			}
			b := r(row)
			if a.Missing || b.Missing {
				return table.MissingValue(table.KindInt)
			}
			return boolValue(truthy(b))
		}
	case "==", "!=", "<", "<=", ">", ">=":
		return func(row int) table.Value {
			a, b := l(row), r(row)
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
			}
			return boolValue(c >= 0)
		}
	}
	return func(row int) table.Value {
		a, b := l(row), r(row)
		switch {
		case a.Missing || b.Missing:
			return table.MissingValue(kind)
		case kind == table.KindString:
			return table.StringValue(a.S + b.S)
		case (op == "/" || op == "%") && b.Double() == 0:
			// Division by zero is missing.
			return table.MissingValue(kind)
		case op == "/":
			return table.DoubleValue(a.Double() / b.Double())
		case kind == table.KindDouble:
			x, y := a.Double(), b.Double()
			switch op {
			case "+":
				return table.DoubleValue(x + y)
			case "-":
				return table.DoubleValue(x - y)
			case "*":
				return table.DoubleValue(x * y)
			}
			return table.DoubleValue(math.Mod(x, y))
		}
		x, y := a.I, b.I
		switch op {
		case "+":
			return table.IntValue(x + y)
		case "-":
			return table.IntValue(x - y)
		case "*":
			return table.IntValue(x * y)
		}
		return table.IntValue(x % y)
	}
}

// call is one builtin's reference: whether it sees missing arguments
// (by default any missing argument makes the result missing), whether
// it returns one of its arguments from firstBranch on (which it then
// reads as the bound kind), and its evaluator.
type call struct {
	passMissing bool
	branch      bool
	firstBranch int
	eval        func(args []table.Value, kind table.Kind) table.Value
}

func fn(f func(a []table.Value) table.Value) call {
	return call{eval: func(a []table.Value, _ table.Kind) table.Value { return f(a) }}
}

func dateField(f func(time.Time) int64) call {
	return fn(func(a []table.Value) table.Value {
		return table.IntValue(f(time.UnixMilli(int64(a[0].Double())).UTC()))
	})
}

// asInt reads a value as an integer argument: a double truncates toward
// zero, and a string reads as zero.
func asInt(v table.Value) int64 {
	if v.Kind == table.KindDouble {
		return int64(v.D)
	}
	return v.I
}

var calls = map[string]call{
	"abs": {eval: func(a []table.Value, kind table.Kind) table.Value {
		if kind == table.KindDouble {
			return table.DoubleValue(math.Abs(a[0].Double()))
		}
		v := a[0].I
		if v < 0 {
			v = -v
		}
		return table.IntValue(v)
	}},
	"floor": fn(func(a []table.Value) table.Value { return table.IntValue(int64(math.Floor(a[0].Double()))) }),
	"ceil":  fn(func(a []table.Value) table.Value { return table.IntValue(int64(math.Ceil(a[0].Double()))) }),
	"round": fn(func(a []table.Value) table.Value { return table.IntValue(int64(math.Round(a[0].Double()))) }),
	"sqrt":  fn(func(a []table.Value) table.Value { return table.DoubleValue(math.Sqrt(a[0].Double())) }),
	"exp":   fn(func(a []table.Value) table.Value { return table.DoubleValue(math.Exp(a[0].Double())) }),
	"log":   fn(func(a []table.Value) table.Value { return table.DoubleValue(math.Log(a[0].Double())) }),
	"pow": fn(func(a []table.Value) table.Value {
		return table.DoubleValue(math.Pow(a[0].Double(), a[1].Double()))
	}),
	"min": {branch: true, eval: func(a []table.Value, _ table.Kind) table.Value {
		if a[0].Compare(a[1]) <= 0 {
			return a[0]
		}
		return a[1]
	}},
	"max": {branch: true, eval: func(a []table.Value, _ table.Kind) table.Value {
		if a[0].Compare(a[1]) >= 0 {
			return a[0]
		}
		return a[1]
	}},
	"len":   fn(func(a []table.Value) table.Value { return table.IntValue(int64(len(a[0].String()))) }),
	"lower": fn(func(a []table.Value) table.Value { return table.StringValue(strings.ToLower(a[0].String())) }),
	"upper": fn(func(a []table.Value) table.Value { return table.StringValue(strings.ToUpper(a[0].String())) }),
	"trim":  fn(func(a []table.Value) table.Value { return table.StringValue(strings.TrimSpace(a[0].String())) }),
	"substr": fn(func(a []table.Value) table.Value {
		s := a[0].String()
		start, n := asInt(a[1]), asInt(a[2])
		if start < 0 {
			start = 0
		}
		if start > int64(len(s)) {
			start = int64(len(s))
		}
		end := int64(len(s))
		if n >= 0 && n < end-start {
			end = start + n
		}
		return table.StringValue(s[start:end])
	}),
	"concat": fn(func(a []table.Value) table.Value {
		var sb strings.Builder
		for _, v := range a {
			sb.WriteString(v.String())
		}
		return table.StringValue(sb.String())
	}),
	"contains": fn(func(a []table.Value) table.Value {
		return boolValue(strings.Contains(a[0].String(), a[1].String()))
	}),
	"startsWith": fn(func(a []table.Value) table.Value {
		return boolValue(strings.HasPrefix(a[0].String(), a[1].String()))
	}),
	"endsWith": fn(func(a []table.Value) table.Value {
		return boolValue(strings.HasSuffix(a[0].String(), a[1].String()))
	}),
	"year":    dateField(func(t time.Time) int64 { return int64(t.Year()) }),
	"month":   dateField(func(t time.Time) int64 { return int64(t.Month()) }),
	"day":     dateField(func(t time.Time) int64 { return int64(t.Day()) }),
	"hour":    dateField(func(t time.Time) int64 { return int64(t.Hour()) }),
	"minute":  dateField(func(t time.Time) int64 { return int64(t.Minute()) }),
	"weekday": dateField(func(t time.Time) int64 { return int64(t.Weekday()) }),
	"toInt": fn(func(a []table.Value) table.Value {
		if a[0].Kind != table.KindString {
			return table.IntValue(int64(a[0].Double()))
		}
		i, err := strconv.ParseInt(strings.TrimSpace(a[0].S), 10, 64)
		if err != nil {
			return table.MissingValue(table.KindInt)
		}
		return table.IntValue(i)
	}),
	"toDouble": fn(func(a []table.Value) table.Value {
		if a[0].Kind != table.KindString {
			return table.DoubleValue(a[0].Double())
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(a[0].S), 64)
		if err != nil {
			return table.MissingValue(table.KindDouble)
		}
		return table.DoubleValue(f)
	}),
	"toString": fn(func(a []table.Value) table.Value { return table.StringValue(a[0].String()) }),
	"toDate": fn(func(a []table.Value) table.Value {
		return table.Value{Kind: table.KindDate, I: int64(a[0].Double())}
	}),
	"isMissing": {passMissing: true, eval: func(a []table.Value, _ table.Kind) table.Value {
		return boolValue(a[0].Missing)
	}},
	"coalesce": {passMissing: true, branch: true, eval: func(a []table.Value, _ table.Kind) table.Value {
		for _, v := range a {
			if !v.Missing {
				return v
			}
		}
		return a[len(a)-1]
	}},
	"if": {passMissing: true, branch: true, firstBranch: 1, eval: func(a []table.Value, _ table.Kind) table.Value {
		if truthy(a[0]) {
			return a[1]
		}
		return a[2]
	}},
}
