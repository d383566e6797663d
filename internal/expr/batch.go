package expr

import (
	"math"
	"math/bits"

	"repro/internal/table"
)

// This file is the batch compiler: it walks a bound tree (Compiled) and
// builds vector nodes that evaluate a predicate over a whole batch of
// rows — a physical span or a gathered row list, at most
// table.SelectBatch rows — instead of one boxed Value at a time. The
// package comment describes the pipeline and the missing-value rules.
//
// There are two node forms. A numNode yields a typed vector (int64 for
// int/date kinds, float64 for doubles) plus missing words; a condNode
// yields a three-valued truth vector as two disjoint word sets, T (true)
// and M (missing), false being neither. Every node owns its output
// buffers, allocated once at compile time, so evaluating a batch
// allocates nothing. A compiled predicate is used by one goroutine.

// batch identifies the rows under evaluation: the physical span
// [start, end) when rows is nil, else the gathered rows. n is the row
// count. live, when set, marks the span positions whose result the
// caller keeps; vector loops ignore it, row fallbacks skip the rest.
type batch struct {
	start, end int
	rows       []int32
	n          int
	live       []uint64
}

// forLive calls f with each batch position that matters and its
// physical row.
func (b *batch) forLive(f func(k, row int)) {
	switch {
	case b.rows != nil:
		for k, r := range b.rows {
			f(k, int(r))
		}
	case b.live == nil:
		for k := 0; k < b.n; k++ {
			f(k, b.start+k)
		}
	default:
		for w, word := range b.live[:b.words()] {
			for ; word != 0; word &= word - 1 {
				if k := w<<6 + bits.TrailingZeros64(word); k < b.n {
					f(k, b.start+k)
				}
			}
		}
	}
}

func (b *batch) words() int { return (b.n + 63) >> 6 }

// vector is a numeric batch value: ints for int/date kinds, floats for
// doubles (exactly one is set), and the missing words (nil when no row
// is missing). Payloads under a missing bit are unspecified.
type vector struct {
	ints   []int64
	floats []float64
	miss   []uint64
}

type numNode interface {
	// eval returns the batch's values; the slices stay valid until the
	// node's next eval and may alias column storage.
	eval(b *batch) vector
}

type condNode interface {
	// evalCond overwrites the words of t and m covering the batch; bits
	// past the batch are left zero and t&m is zero.
	evalCond(b *batch, t, m []uint64)
}

func newWords() []uint64 { return make([]uint64, table.SelectBatch/64) }

// selection is a predicate compiled to batch form. It implements
// table.Selector: a row is selected when the predicate is true there,
// so rows where it is false or missing are dropped.
type selection struct {
	root condNode
	m    []uint64
}

// SelectSpan implements table.Selector.
func (s *selection) SelectSpan(start, end int, live, out []uint64) {
	s.root.evalCond(&batch{start: start, end: end, n: end - start, live: live}, out, s.m)
}

// SelectRows implements table.Selector.
func (s *selection) SelectRows(rows []int32, out []uint64) {
	s.root.evalCond(&batch{rows: rows, n: len(rows)}, out, s.m)
}

// Select parses, folds, binds and batch-compiles src as a row filter
// over t and returns the membership of t's member rows it keeps, in the
// representation table.FilterMembership would choose.
func Select(src string, t *table.Table) (table.Membership, error) {
	node, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return SelectNode(Fold(node), t)
}

// SelectNode is Select for an already parsed predicate.
func SelectNode(node Node, t *table.Table) (table.Membership, error) {
	c, err := BindNode(node, t)
	if err != nil {
		return nil, err
	}
	return table.Select(t.Members(), &selection{root: compileCond(c), m: newWords()}), nil
}

var cmpOps = map[string]table.CmpOp{
	"<": table.CmpLT, "<=": table.CmpLE, "==": table.CmpEQ,
	"!=": table.CmpNE, ">=": table.CmpGE, ">": table.CmpGT,
}

// vectorizable reports whether c has a numeric vector form: number
// literals, int/date/double columns, and numeric operators. Those are
// exactly the subtrees whose row values always carry the bound kind,
// which is what lets a typed vector stand in for them: builtin calls
// (if, coalesce, min, max return an argument as it is) may yield values
// of another kind, so they are evaluated only by the row closure of the
// operator that consumes them.
func vectorizable(c *Compiled) bool {
	if !c.Kind.Numeric() {
		return false
	}
	switch c.node.(type) {
	case *NumberNode, *UnaryNode, *BinaryNode, *ColumnNode:
		return true
	}
	return false
}

// compileCond compiles c as a truth value: logic and comparisons
// natively, any other vectorizable subtree by its non-zero test, and
// the rest (strings, calls) by the row evaluator.
func compileCond(c *Compiled) condNode {
	switch n := c.node.(type) {
	case *UnaryNode:
		if n.Op == "!" {
			return &notNode{x: compileCond(c.args[0])}
		}
	case *BinaryNode:
		if n.Op == "&&" || n.Op == "||" {
			return &logicNode{or: n.Op == "||",
				l: compileCond(c.args[0]), r: compileCond(c.args[1]),
				t2: newWords(), m2: newWords()}
		}
		if op, ok := cmpOps[n.Op]; ok {
			return compileCompare(op, c)
		}
	}
	if vectorizable(c) {
		return &truthyNode{x: compileNum(c)}
	}
	return &rowCond{fn: c.Fn}
}

// literal returns the constant a folded literal operand denotes.
func literal(c *Compiled) (table.Value, bool) {
	switch n := c.node.(type) {
	case *NumberNode:
		return n.Value(), true
	case *StringNode:
		return table.StringValue(n.S), true
	}
	return table.Value{}, false
}

// compileCompare compiles "l op r". A stored column against a constant
// is the table primitive; two vectorizable operands compare as vectors
// (natively when both sides have one int kind, else as float64, which
// is Value.Compare's rule); anything else is the row evaluator's.
func compileCompare(op table.CmpOp, c *Compiled) condNode {
	l, r := c.args[0], c.args[1]
	if k, ok := literal(r); ok && l.col != nil {
		if cc, ok := table.NewConstCompare(l.col, op, k); ok {
			return &constCmp{cc: cc, miss: newWords()}
		}
	}
	if k, ok := literal(l); ok && r.col != nil {
		if cc, ok := table.NewConstCompare(r.col, op.Flip(), k); ok {
			return &constCmp{cc: cc, miss: newWords()}
		}
	}
	if !vectorizable(l) || !vectorizable(r) {
		return &rowCond{fn: c.Fn}
	}
	n := &cmpNode{op: op, l: compileNum(l), r: compileNum(r), miss: newWords()}
	if l.Kind != r.Kind || l.Kind == table.KindDouble {
		n.lf, n.rf = make([]float64, table.SelectBatch), make([]float64, table.SelectBatch)
	}
	return n
}

// compileNum compiles a vectorizable subtree to a vector node. An
// arithmetic operator with an operand that is not vectorizable runs
// its row evaluator inside the batch instead; its own results carry
// the bound kind, so the operators above it stay vectors.
func compileNum(c *Compiled) numNode {
	isFloat := c.Kind == table.KindDouble
	if !isTruthOp(c.node) {
		for _, arg := range c.args {
			if !vectorizable(arg) {
				return &rowNum{fn: c.Fn, out: newVector(isFloat)}
			}
		}
	}
	switch n := c.node.(type) {
	case *NumberNode:
		return newConstNum(n.Value())
	case *ColumnNode:
		if col, ok := c.col.(*table.IntColumn); ok {
			return &intCol{vals: col.Ints(), mask: col.MissingMask(), buf: make([]int64, table.SelectBatch), miss: newWords()}
		}
		col := c.col.(*table.DoubleColumn)
		return &doubleCol{vals: col.Doubles(), mask: col.MissingMask(), buf: make([]float64, table.SelectBatch), miss: newWords()}
	case *UnaryNode:
		if n.Op == "-" {
			return &arithNode{op: "neg", l: compileNum(c.args[0]), out: newVector(isFloat)}
		}
	case *BinaryNode:
		switch n.Op {
		case "+", "-", "*", "/", "%":
			a := &arithNode{op: n.Op, l: compileNum(c.args[0]), r: compileNum(c.args[1]), out: newVector(isFloat)}
			if isFloat {
				a.lf, a.rf = make([]float64, table.SelectBatch), make([]float64, table.SelectBatch)
			}
			return a
		}
	}
	// !, comparisons, && and ||: a truth value read as 0/1.
	return newCondNum(compileCond(c))
}

// isTruthOp reports whether n is an operator compileCond handles,
// operands of any kind included.
func isTruthOp(n Node) bool {
	switch n := n.(type) {
	case *UnaryNode:
		return n.Op == "!"
	case *BinaryNode:
		_, cmp := cmpOps[n.Op]
		return cmp || n.Op == "&&" || n.Op == "||"
	}
	return false
}

func newVector(isFloat bool) vector {
	v := vector{miss: newWords()}
	if isFloat {
		v.floats = make([]float64, table.SelectBatch)
	} else {
		v.ints = make([]int64, table.SelectBatch)
	}
	return v
}

// batchMissing extracts the batch's bits of a missing mask into buf,
// returning nil for a column with no missing rows.
func batchMissing(mask *table.Bitset, b *batch, buf []uint64) []uint64 {
	if mask == nil {
		return nil
	}
	if b.rows == nil {
		table.SpanBits(mask, b.start, b.end, buf)
	} else {
		table.GatherBits(mask, b.rows, buf)
	}
	return buf[:b.words()]
}

// orMissing returns the union of two missing-word sets in dst, or nil
// when neither side has any.
func orMissing(dst, a, b []uint64) []uint64 {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	dst = dst[:len(a)]
	for w := range dst {
		dst[w] = a[w] | b[w]
	}
	return dst
}

// setMissing writes miss (nil: none) to m and clears those rows in t.
func setMissing(t, m, miss []uint64, words int) {
	if miss == nil {
		clear(m[:words])
		return
	}
	for w := 0; w < words; w++ {
		m[w] = miss[w]
		t[w] &^= miss[w]
	}
}

// asFloats returns v as float64s, widening an int vector into buf.
func (v vector) asFloats(buf []float64) []float64 {
	if v.floats != nil {
		return v.floats
	}
	buf = buf[:len(v.ints)]
	for k, x := range v.ints {
		buf[k] = float64(x)
	}
	return buf
}

// intCol and doubleCol read a stored column: spans alias the backing
// slice, gathered batches copy through buf.
type intCol struct {
	vals []int64
	mask *table.Bitset
	buf  []int64
	miss []uint64
}

func (c *intCol) eval(b *batch) vector {
	return vector{ints: gather(c.vals, b, c.buf), miss: batchMissing(c.mask, b, c.miss)}
}

type doubleCol struct {
	vals []float64
	mask *table.Bitset
	buf  []float64
	miss []uint64
}

func (c *doubleCol) eval(b *batch) vector {
	return vector{floats: gather(c.vals, b, c.buf), miss: batchMissing(c.mask, b, c.miss)}
}

func gather[T int64 | float64](vals []T, b *batch, buf []T) []T {
	if b.rows == nil {
		return vals[b.start:b.end]
	}
	buf = buf[:b.n]
	for k, r := range b.rows {
		buf[k] = vals[r]
	}
	return buf
}

// constNum is a literal: a vector filled once at compile time.
type constNum struct{ v vector }

func newConstNum(k table.Value) *constNum {
	v := newVector(k.Kind == table.KindDouble)
	v.miss = nil
	for i := range v.ints {
		v.ints[i] = k.I
	}
	for i := range v.floats {
		v.floats[i] = k.D
	}
	return &constNum{v: v}
}

func (c *constNum) eval(b *batch) vector {
	if c.v.floats != nil {
		return vector{floats: c.v.floats[:b.n]}
	}
	return vector{ints: c.v.ints[:b.n]}
}

// rowNum is the in-batch row fallback for numeric subtrees the compiler
// has no vector form for: it calls the subtree's row evaluator once per
// batch row and unboxes the results.
type rowNum struct {
	fn  func(row int) table.Value
	out vector
}

func (r *rowNum) eval(b *batch) vector {
	out := r.out
	clear(out.miss[:b.words()])
	b.forLive(func(k, row int) {
		switch v := r.fn(row); {
		case v.Missing:
			out.miss[k>>6] |= 1 << (uint(k) & 63)
		case out.floats != nil:
			out.floats[k] = v.Double()
		default:
			out.ints[k] = v.I
		}
	})
	if out.floats != nil {
		out.floats = out.floats[:b.n]
	} else {
		out.ints = out.ints[:b.n]
	}
	out.miss = out.miss[:b.words()]
	return out
}

// rowCond is the row fallback for truth values (string comparisons,
// string truthiness, truth-valued builtins).
type rowCond struct{ fn func(row int) table.Value }

func (r *rowCond) evalCond(b *batch, t, m []uint64) {
	clear(t[:b.words()])
	clear(m[:b.words()])
	b.forLive(func(k, row int) {
		switch v := r.fn(row); {
		case v.Missing:
			m[k>>6] |= 1 << (uint(k) & 63)
		case truthy(v):
			t[k>>6] |= 1 << (uint(k) & 63)
		}
	})
}

// condNum views a truth value as the int 0/1 the row evaluator's
// boolValue produces, for "(a < b) + 1" and "(a < b) == (c < d)".
type condNum struct {
	x   condNode
	t   []uint64
	out vector
}

func newCondNum(x condNode) *condNum {
	return &condNum{x: x, t: newWords(), out: newVector(false)}
}

func (c *condNum) eval(b *batch) vector {
	c.x.evalCond(b, c.t, c.out.miss)
	ints := c.out.ints[:b.n]
	for k := range ints {
		ints[k] = int64(c.t[k>>6] >> (uint(k) & 63) & 1)
	}
	return vector{ints: ints, miss: c.out.miss[:b.words()]}
}

// arithNode is + - * / % and unary negation ("neg", r unset). The
// result is float64 when the bound kind is double — then both operands
// are widened, as Value.Double does — and int64 otherwise. A zero
// divisor makes / and % missing.
type arithNode struct {
	op     string
	l, r   numNode
	lf, rf []float64 // widening buffers of a float result
	out    vector
}

func (a *arithNode) eval(b *batch) vector {
	lv := a.l.eval(b)
	if a.op == "neg" {
		if a.out.floats != nil {
			out := a.out.floats[:b.n]
			for k, x := range lv.floats {
				out[k] = -x
			}
			return vector{floats: out, miss: lv.miss}
		}
		out := a.out.ints[:b.n]
		for k, x := range lv.ints {
			out[k] = -x
		}
		return vector{ints: out, miss: lv.miss}
	}
	rv := a.r.eval(b)
	miss := orMissing(a.out.miss, lv.miss, rv.miss)
	if a.out.floats != nil {
		out := a.out.floats[:b.n]
		miss = arith(a.op, lv.asFloats(a.lf), rv.asFloats(a.rf), out, miss, a.out.miss, math.Mod)
		return vector{floats: out, miss: miss}
	}
	out := a.out.ints[:b.n]
	miss = arith(a.op, lv.ints, rv.ints, out, miss, a.out.miss, func(x, y int64) int64 { return x % y })
	return vector{ints: out, miss: miss}
}

// arith applies op elementwise. For / and % it marks zero-divisor rows
// missing (materialising miss into missBuf if it was nil) and returns
// the resulting missing words.
func arith[T int64 | float64](op string, x, y, out []T, miss, missBuf []uint64, mod func(a, b T) T) []uint64 {
	switch op {
	case "+":
		for k := range out {
			out[k] = x[k] + y[k]
		}
	case "-":
		for k := range out {
			out[k] = x[k] - y[k]
		}
	case "*":
		for k := range out {
			out[k] = x[k] * y[k]
		}
	default: // "/" (float results only) and "%"
		words := missBuf[:(len(out)+63)>>6]
		if miss == nil {
			clear(words)
		} else if &miss[0] != &words[0] {
			copy(words, miss)
		}
		for k := range out {
			switch {
			case y[k] == 0:
				words[k>>6] |= 1 << (uint(k) & 63)
			case op == "/":
				out[k] = x[k] / y[k]
			default:
				out[k] = mod(x[k], y[k])
			}
		}
		return words
	}
	return miss
}

// truthyNode is a numeric value used as a condition: true when present
// and non-zero (NaN is non-zero, as in the row evaluator's truthy).
type truthyNode struct{ x numNode }

func (n *truthyNode) evalCond(b *batch, t, m []uint64) {
	v := n.x.eval(b)
	if v.floats != nil {
		nonZeroWords(v.floats, t)
	} else {
		nonZeroWords(v.ints, t)
	}
	setMissing(t, m, v.miss, b.words())
}

func nonZeroWords[T int64 | float64](vals []T, out []uint64) {
	clear(out[:(len(vals)+63)>>6])
	for k, v := range vals {
		var bit uint64
		if v != 0 {
			bit = 1
		}
		out[k>>6] |= bit << (uint(k) & 63)
	}
}

// constCmp is a stored column compared to a constant: the typed
// selection primitive of package table.
type constCmp struct {
	cc   table.ConstCompare
	miss []uint64
}

func (n *constCmp) evalCond(b *batch, t, m []uint64) {
	if b.rows == nil {
		n.cc.SelectSpan(b.start, b.end, t)
	} else {
		n.cc.SelectRows(b.rows, t)
	}
	setMissing(t, m, batchMissing(n.cc.Missing(), b, n.miss), b.words())
}

// cmpNode compares two vectors. lf/rf are set when the comparison is
// made in float64.
type cmpNode struct {
	op     table.CmpOp
	l, r   numNode
	lf, rf []float64
	miss   []uint64
}

func (n *cmpNode) evalCond(b *batch, t, m []uint64) {
	lv, rv := n.l.eval(b), n.r.eval(b)
	if n.lf != nil {
		compareVectors(lv.asFloats(n.lf), rv.asFloats(n.rf), n.op, t)
	} else {
		compareVectors(lv.ints, rv.ints, n.op, t)
	}
	setMissing(t, m, orMissing(n.miss, lv.miss, rv.miss), b.words())
}

// compareVectors sets bit k of out when x[k] op y[k] under
// Value.Compare's ordering (see table.CmpOp): below, above, or — for
// NaN too — neither.
func compareVectors[T int64 | float64](x, y []T, op table.CmpOp, out []uint64) {
	words := out[:(len(x)+63)>>6]
	clear(words)
	for k := range x {
		var lt, gt uint64
		if x[k] < y[k] {
			lt = 1
		}
		if x[k] > y[k] {
			gt = 1
		}
		var bit uint64
		switch op {
		case table.CmpLT:
			bit = lt
		case table.CmpLE:
			bit = gt ^ 1
		case table.CmpEQ:
			bit = (lt | gt) ^ 1
		case table.CmpNE:
			bit = lt | gt
		case table.CmpGE:
			bit = lt ^ 1
		default:
			bit = gt
		}
		words[k>>6] |= bit << (uint(k) & 63)
	}
}

// notNode is "!x": missing stays missing, true and false swap.
type notNode struct{ x condNode }

func (n *notNode) evalCond(b *batch, t, m []uint64) {
	n.x.evalCond(b, t, m)
	words := b.words()
	for w := 0; w < words; w++ {
		t[w] = ^(t[w] | m[w])
	}
	if b.n&63 != 0 {
		t[words-1] &= 1<<(uint(b.n)&63) - 1
	}
}

// logicNode is "l && r" or "l || r" with the row evaluator's rules: a
// deciding left operand (false for &&, true for ||) decides alone;
// otherwise the result is missing if either side is, else r's truth.
type logicNode struct {
	or     bool
	l, r   condNode
	t2, m2 []uint64
}

func (n *logicNode) evalCond(b *batch, t, m []uint64) {
	n.l.evalCond(b, t, m)
	n.r.evalCond(b, n.t2, n.m2)
	for w := 0; w < b.words(); w++ {
		lt, lm, rt, rm := t[w], m[w], n.t2[w], n.m2[w]
		if n.or {
			lf := ^(lt | lm) // left false: the right side decides
			t[w] = lt | lf&rt
			m[w] = lm | lf&rm
		} else {
			t[w] = lt & rt
			m[w] = lm | lt&rm
		}
	}
}
