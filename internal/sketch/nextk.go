package sketch

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/table"
)

// NextKList is the summary behind the spreadsheet's tabular view (paper
// §4.3 "Next items"): the K distinct rows that follow a start row in the
// sort order, with duplicate rows aggregated into counts (paper §3.3),
// plus enough position information to draw the scroll bar.
type NextKList struct {
	Order table.RecordOrder
	// Rows are the materialized result rows, sorted by Order, laid out
	// as [order columns..., extra columns...].
	Rows []table.Row
	// Counts[i] is the number of duplicates of Rows[i].
	Counts []int64
	// Before counts member rows at or before the start row in the sort
	// order (the view's absolute position).
	Before int64
	// Total counts all member rows scanned.
	Total int64
	K     int
}

// NextKSketch computes a NextKList. From is the exclusive start row,
// containing values for the order columns only (nil starts at the
// beginning). The summarize function keeps a bounded ordered set; the
// merge function merges two sorted lists and truncates (paper §4.3).
type NextKSketch struct {
	Order table.RecordOrder
	// Extra lists display columns beyond the sort columns.
	Extra []string
	K     int
	From  table.Row
}

// Name implements Sketch.
func (s *NextKSketch) Name() string {
	return fmt.Sprintf("nextk(%s,+%v,k=%d,from=%v)", s.Order, s.Extra, s.K, s.From)
}

// Zero implements Sketch.
func (s *NextKSketch) Zero() Result {
	return &NextKList{Order: s.Order, K: s.K}
}

// rowCmp compares result rows: the order-column prefix under the sort
// directions, then the remaining columns ascending as a deterministic
// tie-break so that equal-keyed distinct rows merge identically
// everywhere.
func (s *NextKSketch) rowCmp() func(a, b table.Row) int {
	prefix := s.Order.RowComparator()
	n := len(s.Order)
	return func(a, b table.Row) int {
		if c := prefix(a, b); c != 0 {
			return c
		}
		for i := n; i < len(a) && i < len(b); i++ {
			if c := a[i].Compare(b[i]); c != 0 {
				return c
			}
		}
		return 0
	}
}

// ErrCursorLength reports a From cursor that does not give one value
// per order column.
var ErrCursorLength = errors.New("sketch: start row must have one value per order column")

// checkCursor validates a From cursor against its order: empty (start
// at the beginning) or exactly one value per order column. Anything
// else would index past the cursor when rows are compared to it.
func checkCursor(order table.RecordOrder, from table.Row) error {
	if len(from) != 0 && len(from) != len(order) {
		return fmt.Errorf("%w: got %d for order %s", ErrCursorLength, len(from), order)
	}
	return nil
}

// rowColumns resolves the [order..., extra...] row layout against a
// schema.
func rowColumns(what string, schema *table.Schema, order table.RecordOrder, extra []string) ([]int, error) {
	cols := make([]int, 0, len(order)+len(extra))
	for _, name := range append(order.Columns(), extra...) {
		i := schema.ColumnIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("sketch: %s: no column %q", what, name)
		}
		cols = append(cols, i)
	}
	return cols, nil
}

// Summarize implements Sketch: the pruned scan below, from a cold
// start.
func (s *NextKSketch) Summarize(t *table.Table) (Result, error) {
	a := s.NewAccumulator()
	if err := a.Add(t); err != nil {
		return nil, err
	}
	return a.Result(), nil
}

// nextKAccumulator is the pruned scan. Almost every row of a large
// table loses: once the window holds K rows, a row whose key sorts
// strictly after the K-th row's can neither enter the window nor match a
// row in it, and (with a From cursor) a row whose order key sorts at or
// before the cursor is simply counted in Before. The key is the whole one
// rowCmp sorts by — the order columns in their directions, then the
// extra columns ascending — and both tests are typed compares against it,
// level by level (keySelect), with no row boxed. So only the survivors —
// rows while the window is filling, rows at or before its K-th row, and
// rows a level could not compare in bulk — are boxed and take the exact
// insert (offer). The K-th row is read once per batch; one that tightens
// mid-batch only means a few extra survivors, so the result is exactly
// what inserting every row would give. Like that insert, this relies on
// the order being total on the data: NaN, which Value.Compare orders
// equal to everything, must not sit in a tie beside a number.
type nextKAccumulator struct {
	sk     *NextKSketch
	out    *NextKList
	keyCmp func(a, b table.Row) int
	cmp    func(a, b table.Row) int
	*nextKScratch
	// bound is the K-th row of an earlier partition of the scan (see Next); it
	// prunes like this window's own K-th row would.
	bound table.Row
	slice int // rows the next cold step admits; 0 once warm (see coldSlice)
}

// nextKScratch is the per-batch state of a worker's chain of
// accumulators, which never fold concurrently.
type nextKScratch struct {
	asc                           []bool         // per key level: the order's directions, then ascending
	cols                          []table.Column // the row layout's columns in the table being added
	row                           table.Row      // the row being offered
	cand, le, open, sel, eq, miss []uint64
	pos, phys                     []int32 // the batch rows still tied with a key
}

// NewAccumulator implements AccumulatorSketch.
func (s *NextKSketch) NewAccumulator() Accumulator {
	asc := make([]bool, len(s.Order)+len(s.Extra))
	for i := range asc {
		asc[i] = i >= len(s.Order) || s.Order[i].Ascending
	}
	words := func() []uint64 { return make([]uint64, kernelBatch/64) }
	a := s.accumulator(&nextKScratch{
		asc:  asc,
		row:  make(table.Row, len(asc)),
		cand: words(), le: words(), open: words(), sel: words(), eq: words(), miss: words(),
		pos: make([]int32, 0, kernelBatch), phys: make([]int32, 0, kernelBatch),
	})
	a.slice = coldSlice
	return a
}

// accumulator returns an empty window over the chain's scratch.
func (s *NextKSketch) accumulator(scratch *nextKScratch) *nextKAccumulator {
	return &nextKAccumulator{sk: s, out: s.Zero().(*NextKList),
		keyCmp: s.Order.RowComparator(), cmp: s.rowCmp(), nextKScratch: scratch}
}

// offer folds one materialized member row (already counted in Total)
// into the window: the exact, boxed insert. r may be a scratch row: the
// window keeps a copy.
func (a *nextKAccumulator) offer(r table.Row) {
	s, out := a.sk, a.out
	if len(s.From) > 0 && a.keyCmp(r[:len(s.Order)], s.From) <= 0 {
		out.Before++
		return
	}
	// Find insertion point in the bounded sorted list.
	i := sort.Search(len(out.Rows), func(i int) bool { return a.cmp(out.Rows[i], r) >= 0 })
	if i < len(out.Rows) && a.cmp(out.Rows[i], r) == 0 {
		out.Counts[i]++
		return
	}
	if i >= s.K {
		return // beyond the window
	}
	out.Rows = append(out.Rows, nil)
	copy(out.Rows[i+1:], out.Rows[i:])
	out.Rows[i] = r.Clone()
	out.Counts = append(out.Counts, 0)
	copy(out.Counts[i+1:], out.Counts[i:])
	out.Counts[i] = 1
	if len(out.Rows) > s.K {
		out.Rows = out.Rows[:s.K]
		out.Counts = out.Counts[:s.K]
	}
}

// kth returns the tightest row known to close the window: the K-th
// row once this window is full (it passed bound), else bound.
func (a *nextKAccumulator) kth() (table.Row, bool) {
	if k := a.sk.K; k > 0 && len(a.out.Rows) == k {
		return a.out.Rows[k-1], true
	}
	return a.bound, a.bound != nil
}

// Next implements Accumulator. A fresh window admits K·ln(n/K) rows
// before its K-th row gets tight; the successor starts from this one's.
// Rows it drops sort strictly after K distinct rows already handed to
// the scan's merge, so they can neither reach the merged window nor tie
// with a row in it.
func (a *nextKAccumulator) Next() Accumulator {
	n := a.sk.accumulator(a.nextKScratch)
	if n.bound, _ = a.kth(); n.bound == nil {
		n.slice = coldSlice
	}
	return n
}

// Add implements Accumulator.
func (a *nextKAccumulator) Add(t *table.Table) error {
	s := a.sk
	if err := checkCursor(s.Order, s.From); err != nil {
		return err
	}
	cols, err := rowColumns("nextk", t.Schema(), s.Order, s.Extra)
	if err != nil {
		return err
	}
	a.cols = a.cols[:0]
	for _, c := range cols {
		a.cols = append(a.cols, t.ColumnAt(c))
	}
	scanBatches(t.Members(),
		func(start, end int) { a.fold(keyBatch{start: start, n: end - start}) },
		func(rows []int32) { a.fold(keyBatch{n: len(rows), rows: rows}) })
	return nil
}

// coldSlice is how many rows a window that starts with no bound admits
// first: it then holds K rows, and with them a key to prune on, after
// about K admissions rather than a whole batch. Each later slice is
// twice the one before, up to a whole batch, so while the key tightens
// each slice lets about 2K rows through.
const coldSlice = 64

// keyBatch is the unit the pruned scan compares: the physical rows
// [start, start+n), or the gathered rows (n = len(rows)).
type keyBatch struct {
	start, n int
	rows     []int32
}

// row returns the physical row of the batch's k-th row.
func (b keyBatch) row(k int) int {
	if b.rows != nil {
		return int(b.rows[k])
	}
	return b.start + k
}

// slice returns the batch's rows [lo, hi).
func (b keyBatch) slice(lo, hi int) keyBatch {
	if b.rows != nil {
		return keyBatch{n: hi - lo, rows: b.rows[lo:hi]}
	}
	return keyBatch{start: b.start + lo, n: hi - lo}
}

// fold prunes one batch and offers its survivors, a.slice rows at a time
// while the window is cold.
func (a *nextKAccumulator) fold(b keyBatch) {
	for lo := 0; lo < b.n; {
		hi := b.n
		if a.slice > 0 {
			hi = min(lo+a.slice, b.n)
			if a.slice *= 2; a.slice >= kernelBatch {
				a.slice = 0
			}
		}
		part := b.slice(lo, hi)
		a.prune(part)
		forEachBit(a.cand[:wordsFor(part.n)], func(k int) {
			for c, col := range a.cols {
				a.row[c] = col.Value(part.row(k))
			}
			a.offer(a.row)
		})
		lo = hi
	}
}

// prune counts one batch into Total and Before and leaves in a.cand the
// rows that must take the exact insert.
func (a *nextKAccumulator) prune(b keyBatch) {
	s, out := a.sk, a.out
	out.Total += int64(b.n)
	cand := a.cand[:wordsFor(b.n)]
	fillOnes(cand, b.n)
	if len(s.From) > 0 {
		// Rows proven at or before the cursor are counted, not boxed.
		a.keySelect(b, s.From)
		for w := range cand {
			before := a.le[w] &^ a.open[w]
			out.Before += int64(bits.OnesCount64(before))
			cand[w] &^= before
		}
	}
	if key, ok := a.kth(); ok && len(key) > 0 {
		a.keySelect(b, key)
		for w := range cand {
			cand[w] &= a.le[w]
		}
	}
}

// keySelect writes to a.le the batch rows that sort at or before key on
// its len(key) ≥ 1 levels of the row layout, in rowCmp's directions, and
// to a.open those of them left undecided. Level 0 is one typed compare
// over the whole batch; every later level compares only the rows still
// tied with key, gathered, and the walk stops once none is. The first
// level that cannot be compared in bulk (a computed column, a key of
// another kind) leaves its tied rows in a.le and a.open, so a pruned row
// is always one proven to sort after key.
func (a *nextKAccumulator) keySelect(b keyBatch, key table.Row) {
	le, open := a.le[:wordsFor(b.n)], a.open[:wordsFor(b.n)]
	clear(open)
	if !a.selectLevel(0, a.notAfter(0), key[0], b, le) {
		fillOnes(le, b.n)
		copy(open, le)
		return
	}
	if len(key) == 1 {
		return
	}
	pos, phys := a.pos[:0], a.phys[:0]
	forEachBit(le, func(k int) {
		pos = append(pos, int32(k))
		phys = append(phys, int32(b.row(k)))
	})
	// Rows in the list tie key on every level before lvl and sort at or
	// before it on lvl (which level 0's compare already established).
	for lvl := 0; lvl < len(key) && len(pos) > 0; lvl++ {
		tied := keyBatch{n: len(phys), rows: phys}
		if lvl > 0 && !a.selectLevel(lvl, a.notAfter(lvl), key[lvl], tied, a.sel) {
			for _, k := range pos {
				open[k>>6] |= 1 << (uint(k) & 63)
			}
			break
		}
		last := lvl == len(key)-1
		if !last {
			a.selectLevel(lvl, table.CmpEQ, key[lvl], tied, a.eq)
		}
		n := 0
		for j, k := range pos {
			switch {
			case lvl > 0 && a.sel[j>>6]>>(uint(j)&63)&1 == 0:
				le[k>>6] &^= 1 << (uint(k) & 63) // after key
			case !last && a.eq[j>>6]>>(uint(j)&63)&1 != 0:
				pos[n], phys[n] = k, phys[j] // still tied
				n++
			}
		}
		pos, phys = pos[:n], phys[:n]
	}
}

// notAfter is the operator selecting values that sort at or before a
// key value on level lvl.
func (a *nextKAccumulator) notAfter(lvl int) table.CmpOp {
	if a.asc[lvl] {
		return table.CmpLE
	}
	return table.CmpGE
}

// selectLevel writes to out the rows of b whose value v on level lvl
// satisfies "v op c" in sort-value order, where a missing value sorts
// below every present one. It reports false when the column cannot be
// compared in bulk (a computed column, or a c of another kind).
func (a *nextKAccumulator) selectLevel(lvl int, op table.CmpOp, c table.Value, b keyBatch, out []uint64) bool {
	cc, ok := table.NewConstCompare(a.cols[lvl], op, c)
	if !ok {
		return false
	}
	if b.rows == nil {
		cc.SelectSpan(b.start, b.start+b.n, out)
	} else {
		cc.SelectRows(b.rows, out)
	}
	// The primitive never selects a missing row; the sort order places
	// them first, so they satisfy op exactly when "missing op c" does.
	missingVsC := -1
	if c.Missing {
		missingVsC = 0
	}
	if mask := cc.Missing(); mask != nil && op.Holds(missingVsC) {
		if b.rows == nil {
			table.SpanBits(mask, b.start, b.start+b.n, a.miss)
		} else {
			table.GatherBits(mask, b.rows, a.miss)
		}
		for w := range out[:wordsFor(b.n)] {
			out[w] |= a.miss[w]
		}
	}
	return true
}

// wordsFor returns the number of bitmap words covering n rows.
func wordsFor(n int) int { return (n + 63) >> 6 }

// fillOnes sets the first n bits of words and clears the rest.
func fillOnes(words []uint64, n int) {
	for w := range words {
		words[w] = ^uint64(0)
	}
	if n&63 != 0 {
		words[len(words)-1] = 1<<(uint(n)&63) - 1
	}
}

// forEachBit calls f with the position of every set bit, ascending.
func forEachBit(words []uint64, f func(k int)) {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// Result implements Accumulator.
func (a *nextKAccumulator) Result() Result { return a.out }

// Merge implements Sketch: a sorted-list merge with duplicate
// aggregation, truncated to K.
func (s *NextKSketch) Merge(a, b Result) (Result, error) {
	la, ok1 := a.(*NextKList)
	lb, ok2 := b.(*NextKList)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: nextk merge got %T and %T", a, b)
	}
	cmp := s.rowCmp()
	out := &NextKList{
		Order:  s.Order,
		K:      s.K,
		Before: la.Before + lb.Before,
		Total:  la.Total + lb.Total,
	}
	i, j := 0, 0
	for len(out.Rows) < s.K && (i < len(la.Rows) || j < len(lb.Rows)) {
		switch {
		case i >= len(la.Rows):
			out.Rows = append(out.Rows, lb.Rows[j])
			out.Counts = append(out.Counts, lb.Counts[j])
			j++
		case j >= len(lb.Rows):
			out.Rows = append(out.Rows, la.Rows[i])
			out.Counts = append(out.Counts, la.Counts[i])
			i++
		default:
			switch c := cmp(la.Rows[i], lb.Rows[j]); {
			case c < 0:
				out.Rows = append(out.Rows, la.Rows[i])
				out.Counts = append(out.Counts, la.Counts[i])
				i++
			case c > 0:
				out.Rows = append(out.Rows, lb.Rows[j])
				out.Counts = append(out.Counts, lb.Counts[j])
				j++
			default:
				out.Rows = append(out.Rows, la.Rows[i])
				out.Counts = append(out.Counts, la.Counts[i]+lb.Counts[j])
				i++
				j++
			}
		}
	}
	return out, nil
}
