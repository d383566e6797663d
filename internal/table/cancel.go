package table

// This file is the leaf-scan cancellation seam. The engine checks its
// context between partitions, but one partition can still be a long
// scan. WithCancel threads a cancellation probe into the one substrate
// every scan path shares — the membership — so span, gather,
// row-at-a-time, and sampled scans all poll the probe about every
// cancelPollRows rows and stop mid-scan when it fires.
//
// An aborted scan truncates silently: the kernel completes with partial
// tallies and no error. That is safe only because the engine discards
// the whole fold when the probe's context is cancelled — callers that
// install a probe must never use results produced after it fires
// (Table.Cancelled reports that).

// cancelPollRows is the probe polling interval in rows. It is a
// multiple of every kernel batch size, so splitting spans at poll
// boundaries preserves the exact batch sequence kernels would see on
// the unwrapped membership.
const cancelPollRows = 1 << 16

// cancelMembership wraps a membership so iteration polls probe. It
// yields exactly the rows of the base membership in the same order,
// but its spans are split at cancelPollRows boundaries (so they are
// not necessarily maximal runs) and any form may end early once the
// probe fires.
type cancelMembership struct {
	Membership
	probe func() bool
}

// Base returns the wrapped membership, letting kernels dispatch on the
// underlying representation (e.g. the dense-span fast path).
func (m cancelMembership) Base() Membership { return m.Membership }

// Iterate implements Membership, polling every cancelPollRows rows.
func (m cancelMembership) Iterate(yield func(i int) bool) {
	n := 0
	m.Membership.Iterate(func(i int) bool {
		if n++; n&(cancelPollRows-1) == 0 && m.probe() {
			return false
		}
		return yield(i)
	})
}

// IterateSpans implements Membership: base spans are re-yielded in
// windows of at most cancelPollRows rows with a poll before each.
func (m cancelMembership) IterateSpans(yield func(start, end int) bool) {
	m.Membership.IterateSpans(func(start, end int) bool {
		for a := start; a < end; a += cancelPollRows {
			if m.probe() {
				return false
			}
			b := a + cancelPollRows
			if b > end {
				b = end
			}
			if !yield(a, b) {
				return false
			}
		}
		return true
	})
}

// FillBatch implements Membership with a poll per call (batch buffers
// are far smaller than cancelPollRows). Returning n == 0 reads as
// "scan complete" to the caller, which is exactly the silent
// truncation the contract above allows.
func (m cancelMembership) FillBatch(buf []int32, from int) (int, int) {
	if m.probe() {
		return 0, from
	}
	return m.Membership.FillBatch(buf, from)
}

// Sample implements Membership, polling every cancelPollRows sampled
// rows (sampled scans touch far fewer rows per visit, so the interval
// is measured in visits).
func (m cancelMembership) Sample(rate float64, seed uint64, yield func(i int) bool) {
	n := 0
	m.Membership.Sample(rate, seed, func(i int) bool {
		if n++; n&(cancelPollRows-1) == 0 && m.probe() {
			return false
		}
		return yield(i)
	})
}

// WithCancel returns a view of t whose scans poll probe and stop
// mid-scan once it returns true. The view shares all storage with t;
// a nil probe returns t unchanged. Results computed from the view
// after the probe fires are truncated — callers must treat the whole
// computation as cancelled (see Cancelled).
func (t *Table) WithCancel(probe func() bool) *Table {
	if probe == nil {
		return t
	}
	return &Table{
		id:      t.id,
		schema:  t.schema,
		cols:    t.cols,
		members: cancelMembership{Membership: t.members, probe: probe},
	}
}
