package expr

import (
	"math"
	"math/bits"

	"repro/internal/table"
)

// This file compiles a bound tree (Compiled) to vector nodes, the
// package's one evaluator (see the package comment). Every node owns
// its output buffers, allocated once at compile time for the compiler's
// batch size, so evaluating a batch allocates nothing but the strings a
// string function builds. A compiled tree is used by one goroutine.

// batch identifies the rows under evaluation: the physical span
// [start, end) when rows is nil, else the gathered rows. n is the row
// count.
type batch struct {
	start, end int
	rows       []int32
	n          int
}

func (b *batch) words() int { return (b.n + 63) >> 6 }

// vector is a batch value: ints for int/date kinds, floats for doubles,
// strs for strings (exactly one is set), and the missing words (nil
// when no row is missing). Payloads under a missing bit are unspecified.
type vector struct {
	ints   []int64
	floats []float64
	strs   []string
	miss   []uint64
}

type valueNode interface {
	// eval returns the batch's values; the slices stay valid until the
	// node's next eval and may alias column storage.
	eval(b *batch) vector
}

type condNode interface {
	// evalCond overwrites the words of t and m covering the batch; bits
	// past the batch are left zero and t&m is zero.
	evalCond(b *batch, t, m []uint64)
}

// elem is the payload type of a vector.
type elem interface{ int64 | float64 | string }

// field returns the payload field of v that holds T.
func field[T elem](v *vector) *[]T {
	var z T
	switch any(z).(type) {
	case int64:
		return any(&v.ints).(*[]T)
	case float64:
		return any(&v.floats).(*[]T)
	}
	return any(&v.strs).(*[]T)
}

// payload allocates an n-row payload of kind k's type.
func payload(k table.Kind, n int) vector {
	switch k {
	case table.KindDouble:
		return vector{floats: make([]float64, n)}
	case table.KindString:
		return vector{strs: make([]string, n)}
	}
	return vector{ints: make([]int64, n)}
}

// compiler builds vector nodes whose buffers hold size rows:
// table.SelectBatch for a scan, one for the constant folder.
type compiler struct{ size int }

var scan = compiler{size: table.SelectBatch}

func (cp compiler) words() []uint64 { return make([]uint64, (cp.size+63)>>6) }

// vector allocates an output vector of kind k.
func (cp compiler) vector(k table.Kind) vector {
	v := payload(k, cp.size)
	v.miss = cp.words()
	return v
}

// batches adapts a batch evaluator to table.Selector, which drives it
// over a table's member rows: it writes the rows of the batch it keeps.
type batches func(b *batch, out []uint64)

// SelectSpan implements table.Selector.
func (f batches) SelectSpan(start, end int, out []uint64) {
	f(&batch{start: start, end: end, n: end - start}, out)
}

// SelectRows implements table.Selector.
func (f batches) SelectRows(rows []int32, out []uint64) { f(&batch{rows: rows, n: len(rows)}, out) }

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
	// A row is kept where the predicate is true, so rows where it is
	// false or missing are dropped.
	root, m := scan.cond(c), scan.words()
	return table.Select(t.Members(), batches(func(b *batch, out []uint64) { root.evalCond(b, out, m) })), nil
}

// fill evaluates a derived column's expression over a batch into vals,
// which covers every physical row, and keeps the rows whose value is
// present.
func fill(root valueNode, vals vector) batches {
	return func(b *batch, out []uint64) {
		v := root.eval(b)
		switch {
		case vals.floats != nil:
			scatter(vals.floats, b, v.floats)
		case vals.strs != nil:
			scatter(vals.strs, b, v.strs)
		default:
			scatter(vals.ints, b, v.ints)
		}
		words := out[:b.words()]
		copyMissing(words, v.miss)
		for w := range words {
			words[w] = ^words[w]
		}
		if b.n&63 != 0 {
			words[len(words)-1] &= 1<<(uint(b.n)&63) - 1
		}
	}
}

// scatter writes a batch's values to their physical rows of dst.
func scatter[T elem](dst []T, b *batch, src []T) {
	if b.rows == nil {
		copy(dst[b.start:b.end], src)
		return
	}
	for k, r := range b.rows {
		dst[r] = src[k]
	}
}

// DeriveColumn binds src and evaluates it over the member rows of t a
// batch at a time, as table.Select drives a filter, storing the values
// in a column of the bound kind over t's physical rows. Rows outside
// the membership are missing.
func DeriveColumn(src string, t *table.Table) (table.Column, error) {
	c, err := Bind(src, t)
	if err != nil {
		return nil, err
	}
	n := t.Members().Max()
	vals := payload(c.Kind, n)
	present := table.Select(t.Members(), fill(scan.value(c), vals))
	missing := table.NewBitset(n)
	for w := range missing.Words {
		missing.Words[w] = ^uint64(0)
	}
	if n&63 != 0 {
		missing.Words[len(missing.Words)-1] = 1<<(uint(n)&63) - 1
	}
	if !table.IterateWords(present, func(wi int, words []uint64) bool {
		for k, w := range words {
			missing.Words[wi+k] &^= w
		}
		return true
	}) {
		present.Iterate(func(i int) bool {
			missing.Words[i>>6] &^= 1 << (uint(i) & 63)
			return true
		})
	}
	switch c.Kind {
	case table.KindString:
		return table.NewStringColumn(vals.strs, missing), nil
	case table.KindDouble:
		zeroMissing(vals.floats, missing)
		return table.NewDoubleColumn(vals.floats, missing), nil
	}
	zeroMissing(vals.ints, missing)
	return table.NewIntColumn(c.Kind, vals.ints, missing), nil
}

// zeroMissing zeroes the values of missing rows, as a column builder
// stores them.
func zeroMissing[T int64 | float64](vals []T, missing *table.Bitset) {
	for w, word := range missing.Words {
		for ; word != 0; word &= word - 1 {
			vals[w<<6+bits.TrailingZeros64(word)] = 0
		}
	}
}

var cmpOps = map[string]table.CmpOp{
	"<": table.CmpLT, "<=": table.CmpLE, "==": table.CmpEQ,
	"!=": table.CmpNE, ">=": table.CmpGE, ">": table.CmpGT,
}

// cond compiles c as a truth value: logic and comparisons natively, any
// other value by its truthiness.
func (cp compiler) cond(c *Compiled) condNode {
	switch n := c.Node.(type) {
	case *UnaryNode:
		if n.Op == "!" {
			return &notNode{x: cp.cond(c.Args[0])}
		}
	case *BinaryNode:
		if n.Op == "&&" || n.Op == "||" {
			return &logicNode{or: n.Op == "||",
				l: cp.cond(c.Args[0]), r: cp.cond(c.Args[1]),
				t2: cp.words(), m2: cp.words()}
		}
		if op, ok := cmpOps[n.Op]; ok {
			return cp.compare(op, c)
		}
	}
	return &truthyNode{x: cp.value(c), kind: c.Kind}
}

// literal returns the constant a folded literal operand denotes.
func literal(c *Compiled) (table.Value, bool) {
	switch n := c.Node.(type) {
	case *NumberNode:
		return n.Value(), true
	case *StringNode:
		return table.StringValue(n.S), true
	}
	return table.Value{}, false
}

// compare compiles "l op r". A stored column against a constant is the
// table primitive; otherwise both sides compare as vectors of one kind:
// their own when it is the same on both sides, else double, which is
// Value.Compare's rule.
func (cp compiler) compare(op table.CmpOp, c *Compiled) condNode {
	l, r := c.Args[0], c.Args[1]
	if k, ok := literal(r); ok && l.Col != nil {
		if cc, ok := table.NewConstCompare(l.Col, op, k); ok {
			return &constCmp{cc: cc, miss: cp.words()}
		}
	}
	if k, ok := literal(l); ok && r.Col != nil {
		if cc, ok := table.NewConstCompare(r.Col, op.Flip(), k); ok {
			return &constCmp{cc: cc, miss: cp.words()}
		}
	}
	kind := l.Kind
	if l.Kind != r.Kind {
		kind = table.KindDouble
	}
	return &cmpNode{op: op, kind: kind, l: cp.as(l, kind), r: cp.as(r, kind), miss: cp.words()}
}

// value compiles c to a vector node of its bound kind.
func (cp compiler) value(c *Compiled) valueNode {
	switch n := c.Node.(type) {
	case *NumberNode:
		return cp.constant(n.Value())
	case *StringNode:
		return cp.constant(table.StringValue(n.S))
	case *ColumnNode:
		return cp.column(c.Col)
	case *UnaryNode:
		switch {
		case n.Op == "-" && c.Kind == table.KindDouble:
			return lift1(c.Kind, func(x float64) float64 { return -x })(cp, c)
		case n.Op == "-":
			return lift1(c.Kind, func(x int64) int64 { return -x })(cp, c)
		}
	case *BinaryNode:
		switch {
		case n.Op == "+" && c.Kind == table.KindString:
			return cp.concat(c.Args)
		case n.Op == "+" || n.Op == "-" || n.Op == "*" || n.Op == "/" || n.Op == "%":
			return &arithNode{op: n.Op, l: cp.as(c.Args[0], c.Kind), r: cp.as(c.Args[1], c.Kind), out: cp.vector(c.Kind)}
		}
	case *CallNode:
		return builtins[n.Func].vec(cp, c)
	}
	// !, comparisons, && and ||: a truth value read as 0/1.
	return &condNum{x: cp.cond(c), t: cp.words(), out: cp.vector(table.KindInt)}
}

// sameForm reports whether values of kinds a and b share a vector
// form: int and date are both int64.
func sameForm(a, b table.Kind) bool {
	isInt := func(k table.Kind) bool { return k == table.KindInt || k == table.KindDate }
	return a == b || isInt(a) && isInt(b)
}

// as compiles c read as kind k: an int or date widens to a double, a
// double truncates to an int, a number renders as Value.String does,
// and a string reads as a number as Value.Double does (zero). A
// literal converts once, here.
func (cp compiler) as(c *Compiled, k table.Kind) valueNode {
	if sameForm(c.Kind, k) {
		return cp.value(c)
	}
	if n, ok := c.Node.(*NumberNode); ok && k != table.KindString {
		if k == table.KindDouble {
			return cp.constant(table.DoubleValue(n.Value().Double()))
		}
		return cp.constant(table.IntValue(int64(n.F)))
	}
	return &castNode{x: cp.value(c), from: c.Kind, to: k, out: cp.vector(k)}
}

// constant is a literal: a vector filled once at compile time.
func (cp compiler) constant(k table.Value) valueNode {
	v := payload(k.Kind, cp.size)
	for i := range v.ints {
		v.ints[i] = k.I
	}
	for i := range v.floats {
		v.floats[i] = k.D
	}
	for i := range v.strs {
		v.strs[i] = k.S
	}
	return &constNode{v: v}
}

type constNode struct{ v vector }

func (c *constNode) eval(b *batch) vector { return c.v.head(b.n) }

// head returns v's first n rows.
func (v vector) head(n int) vector {
	switch {
	case v.floats != nil:
		v.floats = v.floats[:n]
	case v.strs != nil:
		v.strs = v.strs[:n]
	default:
		v.ints = v.ints[:n]
	}
	if v.miss != nil {
		v.miss = v.miss[:(n+63)>>6]
	}
	return v
}

// column reads a stored column: spans of int and double columns alias
// the backing slice, gathered batches copy through a buffer, and a
// string column gathers dict[codes[row]].
func (cp compiler) column(col table.Column) valueNode {
	switch col := col.(type) {
	case *table.IntColumn:
		return &numCol[int64]{vals: col.Ints(), mask: col.MissingMask(), out: cp.vector(col.Kind())}
	case *table.DoubleColumn:
		return &numCol[float64]{vals: col.Doubles(), mask: col.MissingMask(), out: cp.vector(table.KindDouble)}
	}
	s := col.(*table.StringColumn)
	return &stringCol{dict: s.Dict(), codes: s.Codes(), mask: s.MissingMask(), out: cp.vector(table.KindString)}
}

type numCol[T int64 | float64] struct {
	vals []T
	mask *table.Bitset
	out  vector
}

func (c *numCol[T]) eval(b *batch) vector {
	v := vector{miss: batchMissing(c.mask, b, c.out.miss)}
	if b.rows == nil {
		*field[T](&v) = c.vals[b.start:b.end]
		return v
	}
	buf := (*field[T](&c.out))[:b.n]
	for k, r := range b.rows {
		buf[k] = c.vals[r]
	}
	*field[T](&v) = buf
	return v
}

type stringCol struct {
	dict  []string
	codes []int32
	mask  *table.Bitset
	out   vector
}

func (c *stringCol) eval(b *batch) vector {
	strs := c.out.strs[:b.n]
	switch {
	case len(c.dict) == 0: // every row is missing
		clear(strs)
	case b.rows == nil:
		for k, code := range c.codes[b.start:b.end] {
			strs[k] = c.dict[code]
		}
	default:
		for k, r := range b.rows {
			strs[k] = c.dict[c.codes[r]]
		}
	}
	return vector{strs: strs, miss: batchMissing(c.mask, b, c.out.miss)}
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

// copyMissing overwrites dst with src (nil: no row missing).
func copyMissing(dst, src []uint64) {
	if src == nil {
		clear(dst)
	} else {
		copy(dst, src)
	}
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

// castNode converts a vector to another kind's form (see compiler.as).
type castNode struct {
	x        valueNode
	from, to table.Kind
	out      vector
}

func (c *castNode) eval(b *batch) vector {
	v := c.x.eval(b)
	out := c.out.head(b.n)
	out.miss = v.miss
	switch {
	case c.from == table.KindString:
		clear(out.ints)
		clear(out.floats)
	case c.to == table.KindString && c.from == table.KindDouble:
		for k, x := range v.floats {
			out.strs[k] = table.DoubleValue(x).String()
		}
	case c.to == table.KindString:
		for k, x := range v.ints {
			out.strs[k] = table.Value{Kind: c.from, I: x}.String()
		}
	case c.to == table.KindDouble:
		for k, x := range v.ints {
			out.floats[k] = float64(x)
		}
	default:
		for k, x := range v.floats {
			out.ints[k] = int64(x)
		}
	}
	return out
}

// condNum views a truth value as the int 0/1, for "(a < b) + 1" and
// "(a < b) == (c < d)".
type condNum struct {
	x   condNode
	t   []uint64
	out vector
}

func (c *condNum) eval(b *batch) vector {
	c.x.evalCond(b, c.t, c.out.miss)
	ints := c.out.ints[:b.n]
	for k := range ints {
		ints[k] = int64(c.t[k>>6] >> (uint(k) & 63) & 1)
	}
	return vector{ints: ints, miss: c.out.miss[:b.words()]}
}

// arithNode is + - * / % over operands already in the result's form: float64 when the bound kind is
// double, int64 otherwise. A zero divisor makes / and % missing.
type arithNode struct {
	op   string
	l, r valueNode
	out  vector
}

func (a *arithNode) eval(b *batch) vector {
	lv, rv := a.l.eval(b), a.r.eval(b)
	miss := orMissing(a.out.miss, lv.miss, rv.miss)
	if a.out.floats != nil {
		out := a.out.floats[:b.n]
		miss = arith(a.op, lv.floats, rv.floats, out, miss, a.out.miss, math.Mod)
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
	x, y = x[:len(out)], y[:len(out)]
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

// truthyNode is a value used as a condition: true when present and
// non-zero (NaN is non-zero) or non-empty.
type truthyNode struct {
	x    valueNode
	kind table.Kind
}

func (n *truthyNode) evalCond(b *batch, t, m []uint64) {
	v := n.x.eval(b)
	switch n.kind {
	case table.KindDouble:
		nonZeroWords(v.floats, t)
	case table.KindString:
		nonZeroWords(v.strs, t)
	default:
		nonZeroWords(v.ints, t)
	}
	setMissing(t, m, v.miss, b.words())
}

func nonZeroWords[T elem](vals []T, out []uint64) {
	clear(out[:(len(vals)+63)>>6])
	var zero T
	for k, v := range vals {
		var bit uint64
		if v != zero {
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

// cmpNode compares two vectors of one kind.
type cmpNode struct {
	op   table.CmpOp
	kind table.Kind
	l, r valueNode
	miss []uint64
}

func (n *cmpNode) evalCond(b *batch, t, m []uint64) {
	lv, rv := n.l.eval(b), n.r.eval(b)
	switch n.kind {
	case table.KindDouble:
		compareVectors(lv.floats, rv.floats, n.op, t)
	case table.KindString:
		compareVectors(lv.strs, rv.strs, n.op, t)
	default:
		compareVectors(lv.ints, rv.ints, n.op, t)
	}
	setMissing(t, m, orMissing(n.miss, lv.miss, rv.miss), b.words())
}

// compareVectors sets bit k of out when x[k] op y[k] under
// Value.Compare's ordering (see table.CmpOp): below, above, or — for
// NaN too — neither.
func compareVectors[T elem](x, y []T, op table.CmpOp, out []uint64) {
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

// logicNode is "l && r" or "l || r": a deciding left operand (false for
// &&, true for ||) decides alone; otherwise the result is missing if
// either side is, else r's truth.
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
