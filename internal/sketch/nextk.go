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

// nextKWindow is the bounded ordered set both scan forms fold rows
// into: the exact, boxed insert.
type nextKWindow struct {
	sk     *NextKSketch
	out    *NextKList
	keyCmp func(a, b table.Row) int
	cmp    func(a, b table.Row) int
}

func (s *NextKSketch) newWindow() nextKWindow {
	return nextKWindow{sk: s, out: s.Zero().(*NextKList), keyCmp: s.Order.RowComparator(), cmp: s.rowCmp()}
}

// offer folds one materialized member row (already counted in Total)
// into the window.
func (w *nextKWindow) offer(r table.Row) {
	s, out := w.sk, w.out
	if len(s.From) > 0 && w.keyCmp(r[:len(s.Order)], s.From) <= 0 {
		out.Before++
		return
	}
	// Find insertion point in the bounded sorted list.
	i := sort.Search(len(out.Rows), func(i int) bool { return w.cmp(out.Rows[i], r) >= 0 })
	if i < len(out.Rows) && w.cmp(out.Rows[i], r) == 0 {
		out.Counts[i]++
		return
	}
	if i >= s.K {
		return // beyond the window
	}
	out.Rows = append(out.Rows, nil)
	copy(out.Rows[i+1:], out.Rows[i:])
	out.Rows[i] = r
	out.Counts = append(out.Counts, 0)
	copy(out.Counts[i+1:], out.Counts[i:])
	out.Counts[i] = 1
	if len(out.Rows) > s.K {
		out.Rows = out.Rows[:s.K]
		out.Counts = out.Counts[:s.K]
	}
}

// Summarize implements Sketch: the reference scan, one boxed row at a
// time. The engine runs the accumulator below; the two agree exactly.
func (s *NextKSketch) Summarize(t *table.Table) (Result, error) {
	if err := checkCursor(s.Order, s.From); err != nil {
		return nil, err
	}
	cols, err := rowColumns("nextk", t.Schema(), s.Order, s.Extra)
	if err != nil {
		return nil, err
	}
	w := s.newWindow()
	t.Members().Iterate(func(row int) bool {
		w.out.Total++
		w.offer(t.GetRowCols(row, cols))
		return true
	})
	return w.out, nil
}

// nextKAccumulator is the pruned scan. Almost every row of a large
// table loses: once the window holds K rows, a row whose leading order
// value sorts strictly after the K-th row's can neither enter the
// window nor match a row in it, and (with a From cursor) a row whose
// leading value sorts strictly before the cursor's is simply counted in
// Before. Both tests are one typed compare of the leading column
// against a constant (table.ConstCompare — a code threshold in each
// partition's own dictionary for string keys) over a whole batch, so
// only the survivors — rows while the window is filling, rows inside
// the window's key range, and ties on the leading key — are boxed and
// take the exact insert. The K-th key is read once per batch; a key
// that tightens mid-batch only means a few extra survivors, so the
// result is exactly Summarize+Merge's.
type nextKAccumulator struct {
	nextKWindow
	cand, sel, miss []uint64 // per-batch bit scratch
	// bound is the K-th leading key of an earlier run of the scan (see
	// Next); it prunes like this window's own K-th key would.
	bound    table.Value
	hasBound bool
}

// NewAccumulator implements AccumulatorSketch.
func (s *NextKSketch) NewAccumulator() Accumulator {
	return &nextKAccumulator{
		nextKWindow: s.newWindow(),
		cand:        make([]uint64, kernelBatch/64),
		sel:         make([]uint64, kernelBatch/64),
		miss:        make([]uint64, kernelBatch/64),
	}
}

// kth returns the tightest key known to close the window: the K-th
// row's once this window is full (it passed bound), else bound.
func (a *nextKAccumulator) kth() (table.Value, bool) {
	if k := a.sk.K; k > 0 && len(a.out.Rows) == k {
		return a.out.Rows[k-1][0], true
	}
	return a.bound, a.hasBound
}

// Next implements Successor. A fresh window admits K·ln(n/K) rows
// before its K-th key gets tight; the successor starts from this one's.
// Rows it drops sort strictly after K distinct rows already handed to
// the scan's merge, so they can neither reach the merged window nor tie
// with a row in it.
func (a *nextKAccumulator) Next() Accumulator {
	n := &nextKAccumulator{nextKWindow: a.sk.newWindow(), cand: a.cand, sel: a.sel, miss: a.miss}
	n.bound, n.hasBound = a.kth()
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
	var lead table.Column // nil: nothing to prune on
	if len(s.Order) > 0 {
		lead = t.ColumnAt(cols[0])
	}
	scanBatches(t.Members(),
		func(start, end int) {
			a.prune(lead, start, end, nil)
			forEachBit(a.cand[:(end-start+63)>>6], func(k int) { a.offer(t.GetRowCols(start+k, cols)) })
		},
		func(rows []int32) {
			a.prune(lead, 0, len(rows), rows)
			forEachBit(a.cand[:(len(rows)+63)>>6], func(k int) { a.offer(t.GetRowCols(int(rows[k]), cols)) })
		})
	return nil
}

// prune counts one batch — the span [start, end), or the gathered rows
// — into Total and Before and leaves in a.cand the rows that must take
// the exact insert.
func (a *nextKAccumulator) prune(lead table.Column, start, end int, rows []int32) {
	s, out := a.sk, a.out
	n := end - start
	out.Total += int64(n)
	cand := a.cand[:(n+63)>>6]
	for w := range cand {
		cand[w] = ^uint64(0)
	}
	if n&63 != 0 {
		cand[len(cand)-1] = 1<<(uint(n)&63) - 1
	}
	if lead == nil {
		return
	}
	// Ascending, "not after the K-th key" is <= and "before the cursor"
	// is <; a descending lead flips both.
	notAfter, before := table.CmpLE, table.CmpLT
	if !s.Order[0].Ascending {
		notAfter, before = table.CmpGE, table.CmpGT
	}
	if key, ok := a.kth(); ok && a.leadSelect(lead, notAfter, key, start, end, rows) {
		for w := range cand {
			cand[w] &= a.sel[w]
		}
	}
	if len(s.From) > 0 && a.leadSelect(lead, before, s.From[0], start, end, rows) {
		for w := range cand {
			out.Before += int64(bits.OnesCount64(a.sel[w]))
			cand[w] &^= a.sel[w]
		}
	}
}

// leadSelect writes to a.sel the batch rows whose leading value v
// satisfies "v op key" in sort-value order, where a missing value sorts
// below every present one. It reports false when the column cannot be
// compared in bulk (a computed column, or a key of another type), in
// which case the caller prunes nothing.
func (a *nextKAccumulator) leadSelect(lead table.Column, op table.CmpOp, key table.Value, start, end int, rows []int32) bool {
	cc, ok := table.NewConstCompare(lead, op, key)
	if !ok {
		return false
	}
	if rows == nil {
		cc.SelectSpan(start, end, a.sel)
	} else {
		cc.SelectRows(rows, a.sel)
	}
	// The primitive never selects a missing row; the sort order places
	// them first, so they satisfy op exactly when "missing op key" does.
	missingVsKey := -1
	if key.Missing {
		missingVsKey = 0
	}
	if mask := cc.Missing(); mask != nil && op.Holds(missingVsKey) {
		if rows == nil {
			table.SpanBits(mask, start, end, a.miss)
		} else {
			table.GatherBits(mask, rows, a.miss)
		}
		for w := range a.sel[:(end-start+63)>>6] {
			a.sel[w] |= a.miss[w]
		}
	}
	return true
}

// forEachBit calls f with the position of every set bit, ascending.
func forEachBit(words []uint64, f func(k int)) {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			f(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// Snapshot implements Accumulator. Rows are immutable once inserted, so
// copying the two slices isolates the snapshot.
func (a *nextKAccumulator) Snapshot() Result {
	out := *a.out
	out.Rows = append([]table.Row(nil), a.out.Rows...)
	out.Counts = append([]int64(nil), a.out.Counts...)
	return &out
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
