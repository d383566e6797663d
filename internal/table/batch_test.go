package table

import (
	"reflect"
	"strings"
	"testing"
)

// testMemberships returns one membership per representation (plus one
// of each restricted to a physical row window), all over the same
// 1000-row physical space and with deterministic contents.
func testMemberships() map[string]Membership {
	const n = 1000
	bits := NewBitset(n)
	for i := 0; i < n; i++ {
		// Deterministic mix: ~half the rows, irregular spacing.
		x := uint64(i) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		if x&3 != 0 {
			bits.Set(i)
		}
	}
	var sparse []int32
	for i := 3; i < n; i += 17 {
		sparse = append(sparse, int32(i))
	}
	ms := map[string]Membership{
		"full":   FullMembership(n),
		"empty":  FullMembership(0),
		"range":  NewRangeMembership(137, 803, n),
		"bitmap": NewBitmapMembership(bits),
		"sparse": NewSparseMembership(sparse, n),
	}
	ms["full/restricted"] = NewRangeMembership(250, 750, n)
	ms["range/restricted"] = NewRangeMembership(300, 400, n)
	ms["bitmap/restricted"] = bitmapWindow(bits, 63, 641)
	ms["sparse/restricted"] = NewSparseMembership(sparse[6:53], n) // rows 105..887
	ms["bitmap/empty-slice"] = bitmapWindow(bits, 500, 500)
	return ms
}

// bitmapWindow is the bitmap membership of the set bits within [lo, hi):
// a copy of bits masked to the window, whose edges may fall mid-word.
func bitmapWindow(bits *Bitset, lo, hi int) *BitmapMembership {
	masked := NewBitset(bits.Len())
	for i := lo; i < hi; i++ {
		if bits.Get(i) {
			masked.Set(i)
		}
	}
	return NewBitmapMembership(masked)
}

func collectSpans(m Membership) []int {
	var out []int
	m.IterateSpans(func(start, end int) bool {
		for i := start; i < end; i++ {
			out = append(out, i)
		}
		return true
	})
	return out
}

func collectBatches(m Membership, bufSize int) []int {
	buf := make([]int32, bufSize)
	var out []int
	for from := 0; ; {
		n, next := m.FillBatch(buf, from)
		if n == 0 {
			break
		}
		for _, r := range buf[:n] {
			out = append(out, int(r))
		}
		from = next
	}
	return out
}

// TestBatchIterationMatchesIterate is the batch-iteration contract:
// IterateSpans and FillBatch (at several buffer sizes) visit exactly the
// rows Iterate visits, in the same order, for every representation.
func TestBatchIterationMatchesIterate(t *testing.T) {
	for name, m := range testMemberships() {
		want := collect(m)
		if got := collectSpans(m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: IterateSpans = %v rows, Iterate = %v rows", name, len(got), len(want))
		}
		for _, bufSize := range []int{1, 3, 64, 1000} {
			if got := collectBatches(m, bufSize); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: FillBatch(buf=%d) = %v rows, Iterate = %v rows", name, bufSize, len(got), len(want))
			}
		}
		if len(want) != m.Size() {
			t.Errorf("%s: Iterate visited %d rows, Size = %d", name, len(want), m.Size())
		}
	}
}

// TestSpansAreMaximal checks that yielded spans are non-empty, strictly
// increasing, and separated by at least one non-member row.
func TestSpansAreMaximal(t *testing.T) {
	for name, m := range testMemberships() {
		prevEnd := -1
		m.IterateSpans(func(start, end int) bool {
			if start >= end {
				t.Errorf("%s: empty span [%d, %d)", name, start, end)
			}
			if start <= prevEnd {
				t.Errorf("%s: span [%d, %d) not past previous end %d", name, start, end, prevEnd)
			}
			if prevEnd >= 0 && start == prevEnd {
				t.Errorf("%s: spans [..%d) and [%d..) should have merged", name, prevEnd, start)
			}
			prevEnd = end
			return true
		})
	}
}

// TestBatchEarlyStop checks that IterateSpans honors a false yield.
func TestBatchEarlyStop(t *testing.T) {
	for name, m := range testMemberships() {
		if m.Size() == 0 {
			continue
		}
		calls := 0
		m.IterateSpans(func(start, end int) bool {
			calls++
			return false
		})
		if calls != 1 {
			t.Errorf("%s: IterateSpans made %d calls after false yield", name, calls)
		}
	}
}

// TestFillBatchFromCursor checks that FillBatch resumes correctly from
// an arbitrary physical cursor, not only from returned cursors.
func TestFillBatchFromCursor(t *testing.T) {
	for name, m := range testMemberships() {
		all := collect(m)
		for _, from := range []int{0, 1, 64, 137, 500, 999, 1000} {
			var want []int
			for _, r := range all {
				if r >= from {
					want = append(want, r)
				}
			}
			buf := make([]int32, 100)
			var got []int
			cur := from
			for {
				n, next := m.FillBatch(buf, cur)
				if n == 0 {
					break
				}
				for _, r := range buf[:n] {
					got = append(got, int(r))
				}
				cur = next
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: FillBatch from %d = %d rows, want %d", name, from, len(got), len(want))
			}
		}
	}
}

// TestRestrictedSampleWithinBounds checks that sampling a restricted
// membership stays in bounds and is deterministic in the seed.
func TestRestrictedSampleWithinBounds(t *testing.T) {
	for name, r := range testMemberships() {
		if !strings.Contains(name, "/") {
			continue
		}
		var a, b []int
		r.Sample(0.3, 7, func(i int) bool { a = append(a, i); return true })
		r.Sample(0.3, 7, func(i int) bool { b = append(b, i); return true })
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: restricted Sample not deterministic", name)
		}
		for _, i := range a {
			if !r.Contains(i) {
				t.Errorf("%s: sampled non-member row %d", name, i)
			}
		}
	}
}

func TestBitsetNextClear(t *testing.T) {
	b := NewBitset(130)
	for i := 0; i < 130; i++ {
		b.Set(i)
	}
	b.Clear(0)
	b.Clear(64)
	b.Clear(100)
	cases := [][2]int{{0, 0}, {1, 64}, {64, 64}, {65, 100}, {101, 130}, {129, 130}, {130, 130}, {500, 130}}
	for _, c := range cases {
		if got := b.NextClear(c[0]); got != c[1] {
			t.Errorf("NextClear(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	var nilB *Bitset
	if got := nilB.NextClear(5); got != 0 {
		t.Errorf("nil NextClear = %d, want 0", got)
	}
	// All-set tail: NextClear inside the last partial word clamps to N.
	b2 := NewBitset(70)
	for i := 0; i < 70; i++ {
		b2.Set(i)
	}
	if got := b2.NextClear(65); got != 70 {
		t.Errorf("NextClear(65) on all-set = %d, want 70", got)
	}
}
