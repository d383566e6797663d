package table

import "math/bits"

// Bitset is a fixed-capacity bit vector used for missing-value masks and
// dense membership sets. The zero value is an empty bitset; Grow before
// setting bits beyond the current capacity.
type Bitset struct {
	Words []uint64
	N     int // logical length in bits
}

// NewBitset returns a bitset able to hold n bits, all clear.
func NewBitset(n int) *Bitset {
	return &Bitset{Words: make([]uint64, (n+63)/64), N: n}
}

// Len returns the logical length in bits.
func (b *Bitset) Len() int { return b.N }

// Get reports whether bit i is set. Out-of-range bits read as clear.
func (b *Bitset) Get(i int) bool {
	if b == nil || i < 0 || i >= b.N {
		return false
	}
	return b.Words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i. It panics if i is out of range.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.N {
		panic("table: bitset index out of range")
	}
	b.Words[i>>6] |= 1 << (uint(i) & 63)
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Iterate calls yield for each set bit in increasing order until yield
// returns false.
func (b *Bitset) Iterate(yield func(i int) bool) {
	if b == nil {
		return
	}
	for wi, w := range b.Words {
		base := wi << 6
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !yield(base + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// NextClear returns the index of the first clear bit at or after i, or
// Len() if every bit from i on is set. Out-of-range i returns Len().
func (b *Bitset) NextClear(i int) int {
	if b == nil {
		return 0
	}
	if i >= b.N {
		return b.N
	}
	if i < 0 {
		i = 0
	}
	wi := i >> 6
	w := ^b.Words[wi] >> (uint(i) & 63)
	if w != 0 {
		j := i + bits.TrailingZeros64(w)
		if j > b.N {
			j = b.N
		}
		return j
	}
	for wi++; wi < len(b.Words); wi++ {
		if b.Words[wi] != ^uint64(0) {
			j := wi<<6 + bits.TrailingZeros64(^b.Words[wi])
			if j > b.N {
				j = b.N
			}
			return j
		}
	}
	return b.N
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// none exists.
func (b *Bitset) NextSet(i int) int {
	if b == nil || i >= b.N {
		return -1
	}
	if i < 0 {
		i = 0
	}
	wi := i >> 6
	w := b.Words[wi] >> (uint(i) & 63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.Words); wi++ {
		if b.Words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(b.Words[wi])
		}
	}
	return -1
}
