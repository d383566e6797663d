package table

// RangeMembership contains the contiguous physical rows [Lo, Hi) of a
// table whose columns span [0, Bound). It is how the storage layer
// splits one loaded file into micropartitions without copying column
// data (paper §5.3: partitions are "divided into micropartitions of
// 10-20M rows, each micropartition assigned to a leaf").
type RangeMembership struct {
	Lo, Hi, Bound int
}

// NewRangeMembership builds the membership for rows [lo, hi) of a
// bound-row table.
func NewRangeMembership(lo, hi, bound int) RangeMembership {
	if lo < 0 || hi < lo || hi > bound {
		panic("table: invalid range membership")
	}
	return RangeMembership{Lo: lo, Hi: hi, Bound: bound}
}

// FullMembership returns the membership containing all rows of an
// n-row table: the range [0, n).
func FullMembership(n int) Membership { return RangeMembership{Lo: 0, Hi: n, Bound: n} }

// Size implements Membership.
func (m RangeMembership) Size() int { return m.Hi - m.Lo }

// Max implements Membership.
func (m RangeMembership) Max() int { return m.Bound }

// Contains implements Membership.
func (m RangeMembership) Contains(i int) bool { return i >= m.Lo && i < m.Hi }

// Iterate implements Membership.
func (m RangeMembership) Iterate(yield func(i int) bool) {
	for i := m.Lo; i < m.Hi; i++ {
		if !yield(i) {
			return
		}
	}
}

// IterateSpans implements Membership: the range is one span.
func (m RangeMembership) IterateSpans(yield func(start, end int) bool) {
	if m.Lo < m.Hi {
		yield(m.Lo, m.Hi)
	}
}

// FillBatch implements Membership with an arithmetic sequence.
func (m RangeMembership) FillBatch(buf []int32, from int) (int, int) {
	return fillSequential(buf, from, m.Lo, m.Hi)
}

// Sample implements Membership with geometric skips over the range.
func (m RangeMembership) Sample(rate float64, seed uint64, yield func(i int) bool) {
	g := newGeomSkipper(rate, seed)
	for i := m.Lo + g.next(); i < m.Hi; i += g.next() + 1 {
		if !yield(i) {
			return
		}
	}
}

// SliceRows returns a view of t restricted to physical rows [lo, hi)
// with the given ID, sharing all column storage. It requires t to have
// full membership (a freshly loaded table).
func SliceRows(t *Table, id string, lo, hi int) *Table {
	if m, ok := t.Members().(RangeMembership); !ok || m.Lo != 0 || m.Hi != m.Bound {
		panic("table: SliceRows requires full membership")
	}
	return New(id, t.Schema(), t.cols, NewRangeMembership(lo, hi, t.Members().Max()))
}
