package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/table"
)

// builtinSpec describes one builtin function: arity bounds, result-kind
// inference, and its vector form.
type builtinSpec struct {
	minArgs, maxArgs int
	kind             func(args []table.Kind) table.Kind
	vec              vecForm
}

// vecForm compiles a bound call to the vector node that evaluates it.
// Unless the builtin is written out to see them (if, coalesce,
// isMissing), a row where any argument is missing is missing.
type vecForm func(cp compiler, c *Compiled) valueNode

func numKind(args []table.Kind) table.Kind {
	for _, k := range args {
		if k == table.KindDouble {
			return table.KindDouble
		}
	}
	return table.KindInt
}

// branchKind types a call that returns one of its arguments (if,
// coalesce, min, max): arguments of one kind give that kind, numeric
// arguments of different kinds promote as arithmetic does, and any
// other mix is KindNone, which Bind rejects. The call reads every value
// argument as that kind.
func branchKind(args []table.Kind) table.Kind {
	k := args[0]
	for _, a := range args[1:] {
		switch {
		case a == k:
		case a.Numeric() && k.Numeric():
			k = numKind([]table.Kind{k, a})
		default:
			return table.KindNone
		}
	}
	return k
}

func fixedKind(k table.Kind) func([]table.Kind) table.Kind {
	return func([]table.Kind) table.Kind { return k }
}

// builtins is the one table of builtin functions. It is filled in init
// because the vector forms compile their arguments, which looks calls
// up here.
var builtins map[string]builtinSpec

func init() {
	trunc := func(x float64) int64 { return int64(x) }
	builtins = map[string]builtinSpec{
		"abs": {1, 1, numKind, func(cp compiler, c *Compiled) valueNode {
			if c.Kind == table.KindDouble {
				return lift1(table.KindDouble, math.Abs)(cp, c)
			}
			return lift1(table.KindInt, func(x int64) int64 { return max(x, -x) })(cp, c)
		}},
		"floor":      {1, 1, fixedKind(table.KindInt), lift1(table.KindDouble, func(x float64) int64 { return int64(math.Floor(x)) })},
		"ceil":       {1, 1, fixedKind(table.KindInt), lift1(table.KindDouble, func(x float64) int64 { return int64(math.Ceil(x)) })},
		"round":      {1, 1, fixedKind(table.KindInt), lift1(table.KindDouble, func(x float64) int64 { return int64(math.Round(x)) })},
		"sqrt":       {1, 1, fixedKind(table.KindDouble), lift1(table.KindDouble, math.Sqrt)},
		"exp":        {1, 1, fixedKind(table.KindDouble), lift1(table.KindDouble, math.Exp)},
		"log":        {1, 1, fixedKind(table.KindDouble), lift1(table.KindDouble, math.Log)},
		"pow":        {2, 2, fixedKind(table.KindDouble), lift2(table.KindDouble, table.KindDouble, math.Pow)},
		"min":        {2, 2, branchKind, minMax(false)},
		"max":        {2, 2, branchKind, minMax(true)},
		"len":        {1, 1, fixedKind(table.KindInt), lift1(table.KindString, func(s string) int64 { return int64(len(s)) })},
		"lower":      {1, 1, fixedKind(table.KindString), lift1(table.KindString, strings.ToLower)},
		"upper":      {1, 1, fixedKind(table.KindString), lift1(table.KindString, strings.ToUpper)},
		"trim":       {1, 1, fixedKind(table.KindString), lift1(table.KindString, strings.TrimSpace)},
		"substr":     {3, 3, fixedKind(table.KindString), substr},
		"concat":     {2, 8, fixedKind(table.KindString), func(cp compiler, c *Compiled) valueNode { return cp.concat(c.Args) }},
		"contains":   {2, 2, fixedKind(table.KindInt), lift2(table.KindString, table.KindString, func(s, t string) int64 { return b2i(strings.Contains(s, t)) })},
		"startsWith": {2, 2, fixedKind(table.KindInt), lift2(table.KindString, table.KindString, func(s, t string) int64 { return b2i(strings.HasPrefix(s, t)) })},
		"endsWith":   {2, 2, fixedKind(table.KindInt), lift2(table.KindString, table.KindString, func(s, t string) int64 { return b2i(strings.HasSuffix(s, t)) })},
		"year":       dateField(func(t time.Time) int64 { return int64(t.Year()) }),
		"month":      dateField(func(t time.Time) int64 { return int64(t.Month()) }),
		"day":        dateField(func(t time.Time) int64 { return int64(t.Day()) }),
		"hour":       dateField(func(t time.Time) int64 { return int64(t.Hour()) }),
		"minute":     dateField(func(t time.Time) int64 { return int64(t.Minute()) }),
		"weekday":    dateField(func(t time.Time) int64 { return int64(t.Weekday()) }),
		"toInt": {1, 1, fixedKind(table.KindInt), func(cp compiler, c *Compiled) valueNode {
			if c.Args[0].Kind == table.KindString {
				return parse(cp, c, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
			}
			return lift1(table.KindDouble, trunc)(cp, c)
		}},
		"toDouble": {1, 1, fixedKind(table.KindDouble), func(cp compiler, c *Compiled) valueNode {
			if c.Args[0].Kind == table.KindString {
				return parse(cp, c, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
			}
			return cp.as(c.Args[0], table.KindDouble)
		}},
		"toString": {1, 1, fixedKind(table.KindString), func(cp compiler, c *Compiled) valueNode {
			return cp.as(c.Args[0], table.KindString)
		}},
		"toDate":    {1, 1, fixedKind(table.KindDate), lift1(table.KindDouble, trunc)},
		"isMissing": {1, 1, fixedKind(table.KindInt), isMissing},
		"coalesce":  {2, 8, branchKind, coalesce},
		"if":        {3, 3, func(args []table.Kind) table.Kind { return branchKind(args[1:]) }, ifForm},
	}
}

func dateField(f func(time.Time) int64) builtinSpec {
	return builtinSpec{1, 1, fixedKind(table.KindInt), lift1(table.KindDouble, func(x float64) int64 {
		return f(time.UnixMilli(int64(x)).UTC())
	})}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func checkArity(name string, n int) error {
	b := builtins[name]
	if n < b.minArgs || n > b.maxArgs {
		return fmt.Errorf("expr: %s takes %d..%d arguments, got %d", name, b.minArgs, b.maxArgs, n)
	}
	return nil
}

// lift1 is the vector form of a scalar function of one argument, read
// as kind in.
func lift1[A, R elem](in table.Kind, f func(A) R) vecForm {
	return func(cp compiler, c *Compiled) valueNode {
		return &map1[A, R]{x: cp.as(c.Args[0], in), f: f, out: cp.vector(c.Kind)}
	}
}

type map1[A, R elem] struct {
	x   valueNode
	f   func(A) R
	out vector
}

func (n *map1[A, R]) eval(b *batch) vector {
	v := n.x.eval(b)
	out := n.out.head(b.n)
	ys := *field[R](&out)
	for k, x := range *field[A](&v) {
		ys[k] = n.f(x)
	}
	out.miss = v.miss
	return out
}

// lift2 is the vector form of a scalar function of two arguments, read
// as kinds in1 and in2.
func lift2[A, B, R elem](in1, in2 table.Kind, f func(A, B) R) vecForm {
	return func(cp compiler, c *Compiled) valueNode {
		return &map2[A, B, R]{x: cp.as(c.Args[0], in1), y: cp.as(c.Args[1], in2), f: f, out: cp.vector(c.Kind)}
	}
}

type map2[A, B, R elem] struct {
	x   valueNode
	y   valueNode
	f   func(A, B) R
	out vector
}

func (n *map2[A, B, R]) eval(b *batch) vector {
	xv, yv := n.x.eval(b), n.y.eval(b)
	out := n.out.head(b.n)
	ys, bs := *field[R](&out), *field[B](&yv)
	for k, x := range *field[A](&xv) {
		ys[k] = n.f(x, bs[k])
	}
	out.miss = orMissing(n.out.miss, xv.miss, yv.miss)
	return out
}

// parse is toInt or toDouble of a string: the trimmed text parsed as a
// number, missing where it does not parse.
func parse[R int64 | float64](cp compiler, c *Compiled, f func(string) (R, error)) valueNode {
	return &parseNode[R]{x: cp.value(c.Args[0]), f: f, out: cp.vector(c.Kind)}
}

type parseNode[R int64 | float64] struct {
	x   valueNode
	f   func(string) (R, error)
	out vector
}

func (n *parseNode[R]) eval(b *batch) vector {
	v := n.x.eval(b)
	out := n.out.head(b.n)
	ys := *field[R](&out)
	copyMissing(out.miss, v.miss)
	for k, s := range v.strs {
		y, err := n.f(strings.TrimSpace(s))
		if err != nil {
			out.miss[k>>6] |= 1 << (uint(k) & 63)
		}
		ys[k] = y
	}
	return out
}

// word returns word w of a missing-word set (nil: none missing).
func word(words []uint64, w int) uint64 {
	if words == nil {
		return 0
	}
	return words[w]
}

func bit(words []uint64, k int) bool { return word(words, k>>6)>>(uint(k)&63)&1 != 0 }

// substr(s, start, n) is the bytes of s from start (clamped to
// [0, len(s)]) for n bytes, or to the end when n is negative or runs
// past it: s with start bytes dropped, then cut to n.
func substr(cp compiler, c *Compiled) valueNode {
	drop := &map2[string, int64, string]{x: cp.as(c.Args[0], table.KindString), y: cp.as(c.Args[1], table.KindInt),
		f: func(s string, i int64) string { return s[min(max(i, 0), int64(len(s))):] }, out: cp.vector(table.KindString)}
	return &map2[string, int64, string]{x: drop, y: cp.as(c.Args[2], table.KindInt), f: func(s string, n int64) string {
		if n >= 0 && n < int64(len(s)) {
			return s[:n]
		}
		return s
	}, out: cp.vector(table.KindString)}
}

// concat compiles a string + or concat(...): its arguments rendered as
// strings and joined, a pair at a time.
func (cp compiler) concat(args []*Compiled) valueNode {
	n := cp.as(args[0], table.KindString)
	for _, a := range args[1:] {
		n = &map2[string, string, string]{x: n, y: cp.as(a, table.KindString),
			f: func(s, t string) string { return s + t }, out: cp.vector(table.KindString)}
	}
	return n
}

// isMissing is the 0/1 value of a missingCond.
func isMissing(cp compiler, c *Compiled) valueNode {
	return &condNum{x: &missingCond{x: cp.value(c.Args[0])}, t: cp.words(), out: cp.vector(table.KindInt)}
}

// missingCond is true where x is missing, and never missing itself.
type missingCond struct{ x valueNode }

func (n *missingCond) evalCond(b *batch, t, m []uint64) {
	copyMissing(t[:b.words()], n.x.eval(b).miss)
	clear(m[:b.words()])
}

// coalesce(a, b, ...) is if(!isMissing(a), a, coalesce(b, ...)), and
// coalesce(z) is z.
func coalesce(cp compiler, c *Compiled) valueNode {
	n := cp.as(c.Args[len(c.Args)-1], c.Kind)
	for i := len(c.Args) - 2; i >= 0; i-- {
		present := &notNode{x: &missingCond{x: cp.value(c.Args[i])}}
		n = &ifNode{cond: present, t: cp.words(), m: cp.words(), a: cp.as(c.Args[i], c.Kind), b: n, out: cp.vector(c.Kind)}
	}
	return n
}

func ifForm(cp compiler, c *Compiled) valueNode {
	return &ifNode{cond: cp.cond(c.Args[0]), t: cp.words(), m: cp.words(),
		a: cp.as(c.Args[1], c.Kind), b: cp.as(c.Args[2], c.Kind), out: cp.vector(c.Kind)}
}

// ifNode is if(c, a, b): a where c is true, else b (c missing counts as
// false).
type ifNode struct {
	cond condNode
	t, m []uint64
	a, b valueNode
	out  vector
}

func (n *ifNode) eval(b *batch) vector {
	n.cond.evalCond(b, n.t, n.m)
	av, bv := n.a.eval(b), n.b.eval(b)
	out := n.out.head(b.n)
	switch {
	case out.floats != nil:
		pick(n.t, av.floats, bv.floats, out.floats)
	case out.strs != nil:
		pick(n.t, av.strs, bv.strs, out.strs)
	default:
		pick(n.t, av.ints, bv.ints, out.ints)
	}
	for w := range out.miss {
		out.miss[w] = n.t[w]&word(av.miss, w) | ^n.t[w]&word(bv.miss, w)
	}
	return out
}

func pick[T elem](t []uint64, a, b, out []T) {
	for k := range out {
		if bit(t, k) {
			out[k] = a[k]
		} else {
			out[k] = b[k]
		}
	}
}

// minMax is min(a, b) or max(a, b) in the bound kind: b where it is
// below (above) a, else a — so a NaN on either side yields a.
func minMax(isMax bool) vecForm {
	return func(cp compiler, c *Compiled) valueNode {
		switch c.Kind {
		case table.KindDouble:
			return lift2(c.Kind, c.Kind, choose[float64](isMax))(cp, c)
		case table.KindString:
			return lift2(c.Kind, c.Kind, choose[string](isMax))(cp, c)
		}
		return lift2(c.Kind, c.Kind, choose[int64](isMax))(cp, c)
	}
}

func choose[T elem](isMax bool) func(a, b T) T {
	return func(a, b T) T {
		if isMax && b > a || !isMax && b < a {
			return b
		}
		return a
	}
}
