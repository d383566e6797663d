package table

// Clear clears bit i. It panics if i is out of range.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.N {
		panic("table: bitset index out of range")
	}
	b.Words[i>>6] &^= 1 << (uint(i) & 63)
}

// Cancelled reports whether t carries a cancellation probe that has
// fired, i.e. whether scans over t may have been truncated.
func (t *Table) Cancelled() bool {
	cm, ok := t.members.(cancelMembership)
	return ok && cm.probe()
}
