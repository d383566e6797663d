package table

import (
	"reflect"
	"testing"
)

// collectAll gathers the rows a membership yields through each of its
// four scan forms.
func collectAll(m Membership) (iter, spans, batch, sample []int) {
	m.Iterate(func(i int) bool { iter = append(iter, i); return true })
	m.IterateSpans(func(start, end int) bool {
		for i := start; i < end; i++ {
			spans = append(spans, i)
		}
		return true
	})
	buf := make([]int32, 100)
	for from := 0; ; {
		n, next := m.FillBatch(buf, from)
		if n == 0 {
			break
		}
		for _, r := range buf[:n] {
			batch = append(batch, int(r))
		}
		from = next
	}
	m.Sample(0.5, 42, func(i int) bool { sample = append(sample, i); return true })
	return
}

// TestCancelMembershipEquivalence pins the wrapper's transparency: with
// a probe that never fires, every scan form yields exactly the base
// membership's rows in the same order — including the sampled sequence,
// which bit-identical replay depends on.
func TestCancelMembershipEquivalence(t *testing.T) {
	bits := NewBitset(200000)
	for i := 0; i < 200000; i++ {
		if i%3 != 0 {
			bits.Set(i)
		}
	}
	for name, base := range map[string]Membership{
		"full":   FullMembership(200000),
		"range":  NewRangeMembership(777, 150001, 200000),
		"bitmap": NewBitmapMembership(bits),
	} {
		t.Run(name, func(t *testing.T) {
			wrapped := cancelMembership{Membership: base, probe: func() bool { return false }}
			i0, s0, b0, p0 := collectAll(base)
			i1, s1, b1, p1 := collectAll(wrapped)
			if !reflect.DeepEqual(i0, i1) {
				t.Error("Iterate differs under cancel wrapper")
			}
			if !reflect.DeepEqual(s0, s1) {
				t.Error("IterateSpans coverage differs under cancel wrapper")
			}
			if !reflect.DeepEqual(b0, b1) {
				t.Error("FillBatch differs under cancel wrapper")
			}
			if !reflect.DeepEqual(p0, p1) {
				t.Error("Sample sequence differs under cancel wrapper")
			}
			if wrapped.Size() != base.Size() || wrapped.Max() != base.Max() {
				t.Error("Size/Max differ under cancel wrapper")
			}
			w0, ok0 := memberWords(base)
			w1, ok1 := memberWords(wrapped)
			if ok0 != (name == "bitmap") || ok1 != ok0 || !reflect.DeepEqual(w0, w1) {
				t.Errorf("IterateWords differs under cancel wrapper (word form %v, wrapped %v)", ok0, ok1)
			}
		})
	}
}

// memberWords gathers the member words IterateWords yields, checking
// that each run starts where the last ended.
func memberWords(m Membership) (words []uint64, ok bool) {
	ok = IterateWords(m, func(wi int, run []uint64) bool {
		if wi != len(words) {
			panic("IterateWords skipped or repeated words")
		}
		words = append(words, run...)
		return true
	})
	return words, ok
}

// TestCancelMembershipStopsMidScan pins the point of the wrapper: a
// probe that fires partway stops every scan form well short of the
// membership, within one polling interval.
func TestCancelMembershipStopsMidScan(t *testing.T) {
	const n = 10 * cancelPollRows
	fired := false
	seen := 0
	m := cancelMembership{Membership: FullMembership(n), probe: func() bool { return fired }}

	budget := 2 * cancelPollRows // fire after ~1 interval, allow 1 more
	seen = 0
	m.Iterate(func(i int) bool {
		seen++
		fired = seen >= cancelPollRows
		return true
	})
	if seen >= budget {
		t.Errorf("Iterate visited %d rows after probe fired (budget %d)", seen, budget)
	}

	fired, seen = false, 0
	m.IterateSpans(func(start, end int) bool {
		seen += end - start
		fired = true
		return true
	})
	if seen > cancelPollRows {
		t.Errorf("IterateSpans yielded %d rows after probe fired (window %d)", seen, cancelPollRows)
	}

	fired = true
	if got, _ := m.FillBatch(make([]int32, 64), 0); got != 0 {
		t.Errorf("FillBatch returned %d rows with probe fired, want 0", got)
	}

	bits := NewBitset(n)
	for i := 0; i < n; i += 2 {
		bits.Set(i)
	}
	fired, seen = false, 0
	bm := cancelMembership{Membership: NewBitmapMembership(bits), probe: func() bool { return fired }}
	IterateWords(bm, func(wi int, words []uint64) bool {
		seen += len(words) * 64
		fired = true
		return true
	})
	if seen > cancelPollRows {
		t.Errorf("IterateWords yielded %d rows after probe fired (window %d)", seen, cancelPollRows)
	}

	fired, seen = false, 0
	m.Sample(1, 1, func(i int) bool {
		seen++
		fired = seen >= cancelPollRows
		return true
	})
	if seen >= budget {
		t.Errorf("Sample visited %d rows after probe fired (budget %d)", seen, budget)
	}
}

// TestTableWithCancel pins the Table-level plumbing: WithCancel shares
// storage, Cancelled reflects the probe, and a nil probe is the
// identity.
func TestTableWithCancel(t *testing.T) {
	cb := NewColumnBuilder(KindInt, 4)
	for i := 0; i < 4; i++ {
		cb.Append(Value{Kind: KindInt, I: int64(i)})
	}
	schema := NewSchema(ColumnDesc{Name: "x", Kind: KindInt})
	tbl := New("t", schema, []Column{cb.Freeze()}, FullMembership(4))

	if tbl.WithCancel(nil) != tbl {
		t.Error("WithCancel(nil) should return the receiver")
	}
	if tbl.Cancelled() {
		t.Error("unprobed table reports Cancelled")
	}
	fired := false
	ct := tbl.WithCancel(func() bool { return fired })
	if ct.Cancelled() {
		t.Error("Cancelled true before probe fires")
	}
	fired = true
	if !ct.Cancelled() {
		t.Error("Cancelled false after probe fires")
	}
	if ct.NumRows() != tbl.NumRows() || ct.ID() != tbl.ID() {
		t.Error("WithCancel changed table identity")
	}
}
