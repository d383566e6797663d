package table

import (
	"math/bits"
	"sort"
)

// This file is the typed selection primitive: compare a stored column's
// backing slice against a constant and write the outcome as bitmap
// words, one bit per row of a batch, with no Value boxed and no per-row
// interface call. Every row-selecting consumer sits on it — the
// expression filter and the zoom range filter (through Select, which
// turns selection words into a derived Membership), and the next-K
// sketch (which prunes rows that cannot enter its window).
//
// A batch is either a physical row span [start, end) or a gathered row
// list; in both forms bit k of the output is the batch's k-th row, the
// words covering the batch are overwritten whole, and bits past the
// batch are zero.

// SelectBatch is the number of rows Select hands a Selector per call: a
// multiple of 64 so dense batches start on a bitmap word, and small
// enough that a batch of intermediate vectors stays cache-resident.
const SelectBatch = 4096

// CmpOp is a comparison operator of the selection primitive.
type CmpOp uint8

// The comparison operators. Their meaning is Value.Compare's: a row
// satisfies "v op c" when v.Compare(c) op 0, so a NaN on either side —
// which Compare orders equal to everything — satisfies ==, <= and >=.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpEQ
	CmpNE
	CmpGE
	CmpGT
)

// Flip returns the operator with its operands exchanged: "c op v" is
// "v op.Flip() c".
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGE:
		return CmpLE
	case CmpGT:
		return CmpLT
	default:
		return op
	}
}

// Holds reports whether a three-way comparison result (negative, zero,
// positive, as Value.Compare returns) satisfies the operator.
func (op CmpOp) Holds(cmp int) bool {
	switch op {
	case CmpLT:
		return cmp < 0
	case CmpLE:
		return cmp <= 0
	case CmpEQ:
		return cmp == 0
	case CmpNE:
		return cmp != 0
	case CmpGE:
		return cmp >= 0
	default:
		return cmp > 0
	}
}

// compareWords sets bit k of out when U(vals[k]) op c holds, for every k
// in [0, len(vals)); out must hold (len(vals)+63)/64 words. It is the
// one compare loop of the tree: three native forms (<, >, neither) and
// their complements. A full 64-row word is built by an 8-way unrolled
// body, written inline per operator: eight compares packed by pack8, then
// one variable shift per eight rows. The loop over a word's rows shifts
// each bit by a variable amount, and a helper that ran the eight
// compares did not inline. A tail word keeps the loop.
func compareWords[T, U int64 | float64 | int32](vals []T, c U, op CmpOp, out []uint64) {
	negate := false
	switch op {
	case CmpLE:
		op, negate = CmpGT, true
	case CmpGE:
		op, negate = CmpLT, true
	case CmpNE:
		op, negate = CmpEQ, true
	}
	n := len(vals)
	for w := 0; w*64 < n; w++ {
		chunk := vals[w*64 : min(w*64+64, n)]
		var word uint64
		switch {
		case len(chunk) == 64 && op == CmpLT:
			for j := 0; j < 64; j += 8 {
				v := chunk[j : j+8 : j+8]
				word |= pack8(b2u(U(v[0]) < c), b2u(U(v[1]) < c), b2u(U(v[2]) < c), b2u(U(v[3]) < c),
					b2u(U(v[4]) < c), b2u(U(v[5]) < c), b2u(U(v[6]) < c), b2u(U(v[7]) < c)) << uint(j)
			}
		case len(chunk) == 64 && op == CmpGT:
			for j := 0; j < 64; j += 8 {
				v := chunk[j : j+8 : j+8]
				word |= pack8(b2u(U(v[0]) > c), b2u(U(v[1]) > c), b2u(U(v[2]) > c), b2u(U(v[3]) > c),
					b2u(U(v[4]) > c), b2u(U(v[5]) > c), b2u(U(v[6]) > c), b2u(U(v[7]) > c)) << uint(j)
			}
		case len(chunk) == 64: // CmpEQ
			for j := 0; j < 64; j += 8 {
				v := chunk[j : j+8 : j+8]
				ne := pack8(b2u(U(v[0]) < c)|b2u(U(v[0]) > c), b2u(U(v[1]) < c)|b2u(U(v[1]) > c),
					b2u(U(v[2]) < c)|b2u(U(v[2]) > c), b2u(U(v[3]) < c)|b2u(U(v[3]) > c),
					b2u(U(v[4]) < c)|b2u(U(v[4]) > c), b2u(U(v[5]) < c)|b2u(U(v[5]) > c),
					b2u(U(v[6]) < c)|b2u(U(v[6]) > c), b2u(U(v[7]) < c)|b2u(U(v[7]) > c))
				word |= (ne ^ 0xff) << uint(j)
			}
		case op == CmpLT:
			for j, v := range chunk {
				word |= b2u(U(v) < c) << uint(j)
			}
		case op == CmpGT:
			for j, v := range chunk {
				word |= b2u(U(v) > c) << uint(j)
			}
		default: // CmpEQ: neither below nor above, as Value.Compare decides it
			for j, v := range chunk {
				word |= (b2u(U(v) < c) | b2u(U(v) > c) ^ 1) << uint(j)
			}
		}
		if negate {
			word = ^word
		}
		out[w] = word
	}
	if negate {
		clearTail(out, n)
	}
}

// pack8 packs eight 0/1 values into bits 0-7. It adds in a tree, which
// compiles to address arithmetic (LEA) instead of a shift and an or per
// bit; the shift-and-or form read 0.81-0.91× this one on the lt and gt
// legs of BenchmarkKernelCompare.
func pack8(b0, b1, b2, b3, b4, b5, b6, b7 uint64) uint64 {
	lo := b0 + 2*b1 + 4*(b2+2*b3)
	hi := b4 + 2*b5 + 4*(b6+2*b7)
	return lo + 16*hi
}

// b2u is 1 for true and 0 for false; it compiles to a flag set.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// clearTail zeroes the bits of words at positions >= n.
func clearTail(words []uint64, n int) {
	if n&63 != 0 {
		words[n>>6] &= 1<<(uint(n)&63) - 1
	}
}

// wordsFor returns the number of bitmap words covering n rows.
func wordsFor(n int) int { return (n + 63) >> 6 }

// SpanBits copies bits [start, end) of b into out, bit k of out being
// bit start+k of b. A nil b reads as all clear.
func SpanBits(b *Bitset, start, end int, out []uint64) {
	nw := wordsFor(end - start)
	if b == nil {
		clear(out[:nw])
		return
	}
	for w := 0; w < nw; w++ {
		out[w] = wordAt(b.Words, start+w<<6)
	}
	clearTail(out, end-start)
}

// wordAt returns the 64 bits of words starting at bit position pos
// (bits past the end read as zero).
func wordAt(words []uint64, pos int) uint64 {
	wi, sh := pos>>6, uint(pos)&63
	word := words[wi] >> sh
	if sh != 0 && wi+1 < len(words) {
		word |= words[wi+1] << (64 - sh)
	}
	return word
}

// GatherBits sets bit k of out to bit rows[k] of b. A nil b reads as
// all clear.
func GatherBits(b *Bitset, rows []int32, out []uint64) {
	clear(out[:wordsFor(len(rows))])
	if b == nil {
		return
	}
	for k, r := range rows {
		out[k>>6] |= (b.Words[r>>6] >> (uint(r) & 63) & 1) << (uint(k) & 63)
	}
}

// ConstCompare is "column op constant" bound to a stored column's typed
// slice. Missing rows are never selected. The zero value selects
// nothing.
type ConstCompare struct {
	op      CmpOp
	all     bool // every non-missing row satisfies the comparison
	ints    []int64
	ci      int64
	asFloat bool // ints compare as float64 against cf (kinds differ)
	doubles []float64
	cf      float64
	codes   []int32
	cc      int32
	missing *Bitset
}

// NewConstCompare binds "col op c" for a stored column. It follows
// Value.Compare: values of one kind compare natively, a numeric column
// against a numeric constant of another kind compares as float64, and a
// string constant is resolved to a code threshold by binary search in
// the column's sorted dictionary (an absent constant falls between two
// codes). A missing constant sorts below every present value, so >, >=
// and != select every present row and the rest none. ok is false when
// the kinds do not compare (string against number).
func NewConstCompare(col Column, op CmpOp, c Value) (cc ConstCompare, ok bool) {
	cc.op = op
	switch col := col.(type) {
	case *IntColumn:
		cc.missing = col.MissingMask()
		switch {
		case c.Missing:
		case !c.Kind.Numeric():
			return cc, false
		case c.Kind == col.kind:
			cc.ints, cc.ci = col.vals, c.I
		default:
			cc.ints, cc.asFloat, cc.cf = col.vals, true, c.Double()
		}
	case *DoubleColumn:
		cc.missing = col.MissingMask()
		switch {
		case c.Missing:
		case !c.Kind.Numeric():
			return cc, false
		default:
			cc.doubles, cc.cf = col.vals, c.Double()
		}
	case *StringColumn:
		cc.missing = col.MissingMask()
		if c.Missing {
			break
		}
		if c.Kind != KindString {
			return cc, false
		}
		cc.codes = col.codes
		code := sort.SearchStrings(col.dict, c.S)
		cc.cc = int32(code)
		if code == len(col.dict) || col.dict[code] != c.S {
			// The constant sits strictly between codes code-1 and code.
			switch op {
			case CmpLE:
				cc.op = CmpLT
			case CmpGT:
				cc.op = CmpGE
			case CmpEQ:
				cc.codes = nil
			case CmpNE:
				cc.codes, cc.all = nil, true
			}
		}
	default:
		return cc, false
	}
	if c.Missing {
		cc.all = op.Holds(1)
	}
	return cc, true
}

// Missing returns the bound column's missing mask (nil when no row is
// missing), for callers that treat missing rows themselves.
func (c *ConstCompare) Missing() *Bitset { return c.missing }

// SelectSpan writes the selection of physical rows [start, end) to out.
func (c *ConstCompare) SelectSpan(start, end int, out []uint64) {
	n := end - start
	switch {
	case c.ints != nil && c.asFloat:
		compareWords(c.ints[start:end], c.cf, c.op, out)
	case c.ints != nil:
		compareWords(c.ints[start:end], c.ci, c.op, out)
	case c.doubles != nil:
		compareWords(c.doubles[start:end], c.cf, c.op, out)
	case c.codes != nil:
		compareWords(c.codes[start:end], c.cc, c.op, out)
	default:
		fillWords(out, n, c.all)
	}
	if c.missing == nil {
		return
	}
	for w := range out[:wordsFor(n)] {
		out[w] &^= wordAt(c.missing.Words, start+w<<6)
	}
}

// SelectRows writes the selection of the gathered rows to out.
func (c *ConstCompare) SelectRows(rows []int32, out []uint64) {
	switch {
	case c.ints != nil && c.asFloat:
		gatherCompare(c.ints, rows, c.cf, c.op, out)
	case c.ints != nil:
		gatherCompare(c.ints, rows, c.ci, c.op, out)
	case c.doubles != nil:
		gatherCompare(c.doubles, rows, c.cf, c.op, out)
	case c.codes != nil:
		gatherCompare(c.codes, rows, c.cc, c.op, out)
	default:
		fillWords(out, len(rows), c.all)
	}
	if c.missing == nil {
		return
	}
	for k, r := range rows {
		out[k>>6] &^= (c.missing.Words[r>>6] >> (uint(r) & 63) & 1) << (uint(k) & 63)
	}
}

// gatherCompare is compareWords over vals[rows[k]]: it gathers 64 rows
// at a time into a stack buffer and runs the one compare loop on it.
func gatherCompare[T, U int64 | float64 | int32](vals []T, rows []int32, c U, op CmpOp, out []uint64) {
	var buf [64]T
	for w := 0; w*64 < len(rows); w++ {
		chunk := rows[w*64 : min(w*64+64, len(rows))]
		for j, r := range chunk {
			buf[j] = vals[r]
		}
		compareWords(buf[:len(chunk)], c, op, out[w:w+1])
	}
}

// fillWords sets the first n bits of out to v.
func fillWords(out []uint64, n int, v bool) {
	out = out[:wordsFor(n)]
	if !v {
		clear(out)
		return
	}
	for w := range out {
		out[w] = ^uint64(0)
	}
	clearTail(out, n)
}

// Selector decides which rows of a batch a derived table keeps. Select
// drives it; a ConstCompare is one, and package expr compiles
// predicates, and fills derived columns, through one.
type Selector interface {
	// SelectSpan writes the selection of physical rows [start, end).
	SelectSpan(start, end int, out []uint64)
	// SelectRows writes the selection of the gathered rows.
	SelectRows(rows []int32, out []uint64)
}

// Select returns the membership of parent's member rows that sel
// selects, in the representation FilterMembership would choose: the
// dense bitmap when at least 1/32 of the physical rows survive (counted
// by popcount — a dense result is never staged as a row list), the
// sparse list otherwise. Range (full) and bitmap parents are evaluated
// a word-aligned span at a time, straight into the result's words, and
// masked with the parent's; any other parent gathers its listed rows.
func Select(parent Membership, sel Selector) Membership {
	max := parent.Max()
	var lo, hi int
	var parentWords []uint64 // nil: every row of [lo, hi) is a member
	switch m := parent.(type) {
	case RangeMembership:
		lo, hi = m.Lo, m.Hi
	case *BitmapMembership:
		hi, parentWords = m.bits.Len(), m.bits.Words
	default:
		return selectGather(parent, sel)
	}
	if lo >= hi {
		return NewSparseMembership(nil, max)
	}
	out := NewBitset(max)
	for a := lo &^ 63; a < hi; a += SelectBatch {
		b := min(a+SelectBatch, hi)
		words := out.Words[a>>6 : wordsFor(b)]
		var live []uint64
		if parentWords != nil {
			if live = parentWords[a>>6 : wordsFor(b)]; allZero(live) {
				continue
			}
		}
		sel.SelectSpan(a, b, words)
		for w := range live {
			words[w] &= live[w]
		}
	}
	// The evaluated spans were widened to word boundaries; drop the
	// rows outside [lo, hi).
	out.Words[lo>>6] &= ^uint64(0) << (uint(lo) & 63)
	clearTail(out.Words, hi)
	return selectionMembership(out)
}

func allZero(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// selectGather is Select for memberships scanned through FillBatch:
// sparse lists and wrappers. A parent too small to yield a dense result
// collects the kept rows directly; otherwise kept rows are set in the
// result bitmap.
func selectGather(parent Membership, sel Selector) Membership {
	max := parent.Max()
	var (
		bitsOut *Bitset
		kept    []int32
	)
	if parent.Size()*32 >= max && max > 0 {
		bitsOut = NewBitset(max)
	}
	rows := make([]int32, SelectBatch)
	words := make([]uint64, SelectBatch/64)
	for from := 0; ; {
		n, next := parent.FillBatch(rows, from)
		if n == 0 {
			break
		}
		sel.SelectRows(rows[:n], words)
		for w, word := range words[:wordsFor(n)] {
			for ; word != 0; word &= word - 1 {
				r := rows[w<<6+bits.TrailingZeros64(word)]
				if bitsOut != nil {
					bitsOut.Set(int(r))
				} else {
					kept = append(kept, r)
				}
			}
		}
		from = next
	}
	if bitsOut != nil {
		return selectionMembership(bitsOut)
	}
	return NewSparseMembership(kept, max)
}

// selectionMembership wraps a selection bitmap in the representation
// its density calls for (see FilterMembership).
func selectionMembership(sel *Bitset) Membership {
	n, max := sel.Count(), sel.Len()
	if n*32 >= max && max > 0 {
		return &BitmapMembership{bits: sel, size: n}
	}
	var kept []int32
	if n > 0 {
		kept = make([]int32, 0, n)
		sel.Iterate(func(i int) bool {
			kept = append(kept, int32(i))
			return true
		})
	}
	return NewSparseMembership(kept, max)
}
