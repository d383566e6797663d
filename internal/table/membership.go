package table

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// Membership identifies which physical rows belong to a (possibly
// filtered) table. Derived tables share column storage with their parents
// and differ only in membership (paper §5.6). Implementations choose a
// representation by density: full, dense bitmap, or sparse index list.
//
// Beyond the row-at-a-time Iterate, memberships expose two batch forms
// that sketch kernels scan with (the batch-iteration contract):
//
//   - IterateSpans yields maximal runs [start, end) of consecutive
//     member rows, strictly increasing and non-overlapping, covering
//     exactly the rows Iterate visits and in the same order.
//   - FillBatch copies member row indexes into a caller-owned buffer,
//     again in increasing Iterate order. The buffer is reused across
//     calls; callers must consume (or copy) its contents before the
//     next call. Each representation fills it with bulk code: full and
//     range memberships write arithmetic sequences, bitmaps decode
//     whole words, sparse lists copy slices.
//
// Both forms are deterministic: for a given membership value they yield
// the same sequence on every call, which the engine relies on for
// replayable scans (paper §5.8).
//
// Sample visits a uniform random subset of member rows where each row is
// included independently with the given probability. Sampling is
// deterministic in the seed, which is how the engine makes randomized
// sketches replayable after failures (paper §5.8). It must be efficient:
// cost proportional to the number of samples plus, for bitmaps, a cheap
// word-skipping walk — never a full per-row scan.
type Membership interface {
	// Size returns the number of member rows.
	Size() int
	// Max returns the exclusive upper bound on physical row indexes
	// (the column length).
	Max() int
	// Contains reports whether physical row i is a member.
	Contains(i int) bool
	// Iterate visits member rows in increasing order until yield returns
	// false.
	Iterate(yield func(i int) bool)
	// IterateSpans visits maximal runs [start, end) of consecutive member
	// rows in increasing order until yield returns false. Every yielded
	// span is non-empty (start < end).
	IterateSpans(yield func(start, end int) bool)
	// FillBatch copies the member rows at or after physical index from
	// into buf, in increasing order, and returns the number n of rows
	// written plus the cursor to pass as from on the next call. n is 0
	// (and the scan is complete) only when no members remain; a full scan
	// starts at from = 0 and stops at the first n == 0.
	FillBatch(buf []int32, from int) (n, next int)
	// Sample visits a uniform subset of member rows (each included with
	// probability rate, independently) in increasing order until yield
	// returns false. rate >= 1 visits every member row.
	Sample(rate float64, seed uint64, yield func(i int) bool)
}

// geomSkipper draws geometric gaps so that visiting every rate-th element
// on average samples each element independently with probability rate.
type geomSkipper struct {
	rng     *rand.Rand
	logOneM float64 // log(1-rate)
	all     bool
}

func newGeomSkipper(rate float64, seed uint64) *geomSkipper {
	if rate >= 1 {
		return &geomSkipper{all: true}
	}
	if rate < 0 {
		rate = 0
	}
	return &geomSkipper{
		rng:     rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		logOneM: math.Log1p(-rate),
	}
}

// next returns how many elements to skip before the next sampled element.
func (g *geomSkipper) next() int {
	if g.all {
		return 0
	}
	// Geometric(rate): floor(log(U)/log(1-rate)) has the distribution of
	// the number of failures before the first success.
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	skip := math.Log(u) / g.logOneM
	if skip >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(skip)
}

// fullMembership contains rows [0, n).
type fullMembership struct{ n int }

// FullMembership returns the membership containing all rows of an
// n-row table.
func FullMembership(n int) Membership { return fullMembership{n: n} }

func (m fullMembership) Size() int           { return m.n }
func (m fullMembership) Max() int            { return m.n }
func (m fullMembership) Contains(i int) bool { return i >= 0 && i < m.n }

func (m fullMembership) Iterate(yield func(i int) bool) {
	for i := 0; i < m.n; i++ {
		if !yield(i) {
			return
		}
	}
}

func (m fullMembership) IterateSpans(yield func(start, end int) bool) {
	if m.n > 0 {
		yield(0, m.n)
	}
}

func (m fullMembership) FillBatch(buf []int32, from int) (int, int) {
	return fillSequential(buf, from, 0, m.n)
}

func (m fullMembership) Sample(rate float64, seed uint64, yield func(i int) bool) {
	g := newGeomSkipper(rate, seed)
	for i := g.next(); i < m.n; i += g.next() + 1 {
		if !yield(i) {
			return
		}
	}
}

// fillSequential writes the arithmetic sequence [max(from,lo), hi) into
// buf; shared by the full and range representations.
func fillSequential(buf []int32, from, lo, hi int) (int, int) {
	if from < lo {
		from = lo
	}
	n := hi - from
	if n <= 0 {
		return 0, hi
	}
	if n > len(buf) {
		n = len(buf)
	}
	for k := 0; k < n; k++ {
		buf[k] = int32(from + k)
	}
	return n, from + n
}

// BitmapMembership is the dense representation: one bit per physical row,
// the member rows being the set bits. A Bitset never has bits set at or
// past its length (Set refuses them), so every word is read whole.
type BitmapMembership struct {
	bits *Bitset
	size int
}

// NewBitmapMembership wraps a bitset as a membership set.
func NewBitmapMembership(bits *Bitset) *BitmapMembership {
	return &BitmapMembership{bits: bits, size: bits.Count()}
}

// Size implements Membership.
func (m *BitmapMembership) Size() int { return m.size }

// Max implements Membership.
func (m *BitmapMembership) Max() int { return m.bits.Len() }

// Contains implements Membership.
func (m *BitmapMembership) Contains(i int) bool { return m.bits.Get(i) }

// iterateWords visits each non-zero bitmap word.
func (m *BitmapMembership) iterateWords(yield func(wi int, w uint64) bool) {
	for wi, w := range m.bits.Words {
		if w != 0 && !yield(wi, w) {
			return
		}
	}
}

// Iterate implements Membership.
func (m *BitmapMembership) Iterate(yield func(i int) bool) {
	m.iterateWords(func(wi int, w uint64) bool {
		base := wi << 6
		for w != 0 {
			if !yield(base + bits.TrailingZeros64(w)) {
				return false
			}
			w &= w - 1
		}
		return true
	})
}

// IterateSpans implements Membership by alternating NextSet/NextClear,
// which walk whole words of the bitmap.
func (m *BitmapMembership) IterateSpans(yield func(start, end int) bool) {
	for i := m.bits.NextSet(0); i >= 0; {
		end := m.bits.NextClear(i)
		if !yield(i, end) {
			return
		}
		i = m.bits.NextSet(end)
	}
}

// FillBatch implements Membership by decoding set bits word at a time.
func (m *BitmapMembership) FillBatch(buf []int32, from int) (int, int) {
	max := m.bits.Len()
	if from < 0 {
		from = 0
	}
	if from >= max || len(buf) == 0 {
		return 0, max
	}
	words := m.bits.Words
	wi := from >> 6
	w := words[wi] & (^uint64(0) << (uint(from) & 63))
	n := 0
	for {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			buf[n] = int32(base + tz)
			n++
			w &= w - 1
			if n == len(buf) {
				return n, base + tz + 1
			}
		}
		wi++
		if wi == len(words) {
			return n, max
		}
		w = words[wi]
	}
}

// Sample implements Membership by walking the bitmap in increasing index
// order with geometric skips over member positions, skipping whole words
// by popcount (paper §5.6: "for dense tables we walk randomly the bitmap
// in increasing index order").
func (m *BitmapMembership) Sample(rate float64, seed uint64, yield func(i int) bool) {
	g := newGeomSkipper(rate, seed)
	skip := g.next()
	m.iterateWords(func(wi int, w uint64) bool {
		for w != 0 {
			pc := bits.OnesCount64(w)
			if skip >= pc {
				skip -= pc
				break
			}
			// Select the skip-th set bit within this word.
			for ; skip > 0; skip-- {
				w &= w - 1
			}
			if !yield(wi<<6 + bits.TrailingZeros64(w)) {
				return false
			}
			w &= w - 1
			skip = g.next()
		}
		return true
	})
}

// SparseMembership is the sparse representation: a sorted list of member
// row indexes.
type SparseMembership struct {
	rows []int32 // sorted ascending
	max  int
}

// NewSparseMembership wraps a sorted index list with the given physical
// bound.
func NewSparseMembership(rows []int32, max int) *SparseMembership {
	return &SparseMembership{rows: rows, max: max}
}

// Size implements Membership.
func (m *SparseMembership) Size() int { return len(m.rows) }

// Max implements Membership.
func (m *SparseMembership) Max() int { return m.max }

// search returns the first position in rows whose value is >= i.
func (m *SparseMembership) search(i int) int {
	lo, hi := 0, len(m.rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(m.rows[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains implements Membership via binary search.
func (m *SparseMembership) Contains(i int) bool {
	p := m.search(i)
	return p < len(m.rows) && int(m.rows[p]) == i
}

// Iterate implements Membership.
func (m *SparseMembership) Iterate(yield func(i int) bool) {
	for _, r := range m.rows {
		if !yield(int(r)) {
			return
		}
	}
}

// IterateSpans implements Membership by grouping consecutive indexes.
func (m *SparseMembership) IterateSpans(yield func(start, end int) bool) {
	rows := m.rows
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j] == rows[j-1]+1 {
			j++
		}
		if !yield(int(rows[i]), int(rows[j-1])+1) {
			return
		}
		i = j
	}
}

// FillBatch implements Membership with a slice copy.
func (m *SparseMembership) FillBatch(buf []int32, from int) (int, int) {
	pos := 0
	if from > 0 {
		pos = m.search(from)
	}
	n := copy(buf, m.rows[pos:])
	if n == 0 {
		return 0, m.max
	}
	return n, int(m.rows[pos+n-1]) + 1
}

// Sample implements Membership with geometric skips over the index list.
func (m *SparseMembership) Sample(rate float64, seed uint64, yield func(i int) bool) {
	g := newGeomSkipper(rate, seed)
	for i := g.next(); i < len(m.rows); i += g.next() + 1 {
		if !yield(int(m.rows[i])) {
			return
		}
	}
}

// FilterMembership evaluates keep over every member row of parent and
// returns a new membership of the kept rows, choosing the dense bitmap
// representation when more than 1/32 of physical rows survive and the
// sparse list otherwise (paper §5.6).
func FilterMembership(parent Membership, keep func(i int) bool) Membership {
	var kept []int32
	parent.Iterate(func(i int) bool {
		if keep(i) {
			kept = append(kept, int32(i))
		}
		return true
	})
	max := parent.Max()
	if len(kept)*32 >= max && max > 0 {
		bits := NewBitset(max)
		for _, r := range kept {
			bits.Set(int(r))
		}
		return NewBitmapMembership(bits)
	}
	return NewSparseMembership(kept, max)
}
