package table

import (
	"math"
	"testing"
	"testing/quick"
)

func collect(m Membership) []int {
	var out []int
	m.Iterate(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

func TestFullMembership(t *testing.T) {
	m := FullMembership(5)
	if m.Size() != 5 || m.Max() != 5 {
		t.Fatalf("Size/Max = %d/%d", m.Size(), m.Max())
	}
	if !m.Contains(0) || !m.Contains(4) || m.Contains(5) || m.Contains(-1) {
		t.Error("Contains wrong")
	}
	got := collect(m)
	if len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Errorf("Iterate = %v", got)
	}
}

func TestBitmapMembership(t *testing.T) {
	bits := NewBitset(130)
	for _, i := range []int{0, 63, 64, 65, 127, 129} {
		bits.Set(i)
	}
	m := NewBitmapMembership(bits)
	if m.Size() != 6 || m.Max() != 130 {
		t.Fatalf("Size/Max = %d/%d", m.Size(), m.Max())
	}
	got := collect(m)
	want := []int{0, 63, 64, 65, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Iterate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Iterate = %v, want %v", got, want)
		}
	}
	if !m.Contains(64) || m.Contains(1) {
		t.Error("Contains wrong")
	}
}

func TestSparseMembership(t *testing.T) {
	m := NewSparseMembership([]int32{2, 7, 11, 40}, 100)
	if m.Size() != 4 || m.Max() != 100 {
		t.Fatalf("Size/Max = %d/%d", m.Size(), m.Max())
	}
	if !m.Contains(7) || m.Contains(8) || m.Contains(41) {
		t.Error("Contains wrong")
	}
	got := collect(m)
	if len(got) != 4 || got[3] != 40 {
		t.Errorf("Iterate = %v", got)
	}
}

func TestFilterMembershipRepresentation(t *testing.T) {
	// Dense survivor set -> bitmap.
	dense := FilterMembership(FullMembership(1000), func(i int) bool { return i%2 == 0 })
	if _, ok := dense.(*BitmapMembership); !ok {
		t.Errorf("dense filter got %T, want *BitmapMembership", dense)
	}
	if dense.Size() != 500 {
		t.Errorf("dense size = %d", dense.Size())
	}
	// Sparse survivor set -> index list.
	sparse := FilterMembership(FullMembership(1000), func(i int) bool { return i%100 == 0 })
	if _, ok := sparse.(*SparseMembership); !ok {
		t.Errorf("sparse filter got %T, want *SparseMembership", sparse)
	}
	if sparse.Size() != 10 {
		t.Errorf("sparse size = %d", sparse.Size())
	}
	// Chained filters compose.
	chained := FilterMembership(dense, func(i int) bool { return i%10 == 0 })
	if chained.Size() != 100 {
		t.Errorf("chained size = %d", chained.Size())
	}
}

// sampleStats runs Sample and returns the count and whether output was
// sorted and within membership.
func sampleStats(t *testing.T, m Membership, rate float64, seed uint64) int {
	t.Helper()
	prev := -1
	count := 0
	m.Sample(rate, seed, func(i int) bool {
		if i <= prev {
			t.Fatalf("sample out of order: %d after %d", i, prev)
		}
		if !m.Contains(i) {
			t.Fatalf("sampled non-member row %d", i)
		}
		prev = i
		count++
		return true
	})
	return count
}

func TestSampleRateAndDeterminism(t *testing.T) {
	memberships := map[string]Membership{
		"full": FullMembership(100000),
		"bitmap": FilterMembership(FullMembership(200000), func(i int) bool {
			return i%2 == 0
		}),
		"sparse": NewSparseMembership(func() []int32 {
			rows := make([]int32, 100000)
			for i := range rows {
				rows[i] = int32(i * 3)
			}
			return rows
		}(), 300000),
	}
	for name, m := range memberships {
		t.Run(name, func(t *testing.T) {
			const rate = 0.1
			n := sampleStats(t, m, rate, 42)
			want := float64(m.Size()) * rate
			// Binomial(100000, 0.1): sd ~ 95; allow 6 sd.
			if math.Abs(float64(n)-want) > 6*math.Sqrt(want*(1-rate)) {
				t.Errorf("sample count %d too far from expectation %.0f", n, want)
			}
			// Determinism: same seed, same sample.
			var a, b []int
			m.Sample(rate, 7, func(i int) bool { a = append(a, i); return true })
			m.Sample(rate, 7, func(i int) bool { b = append(b, i); return true })
			if len(a) != len(b) {
				t.Fatalf("same seed gave %d vs %d samples", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
				}
			}
			// Different seeds should (overwhelmingly) differ.
			var c []int
			m.Sample(rate, 8, func(i int) bool { c = append(c, i); return true })
			same := len(c) == len(a)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Error("different seeds produced identical samples")
			}
		})
	}
}

func TestSampleRateOneVisitsAll(t *testing.T) {
	m := FullMembership(1000)
	if got := sampleStats(t, m, 1.0, 1); got != 1000 {
		t.Errorf("rate 1.0 visited %d rows, want 1000", got)
	}
	if got := sampleStats(t, m, 2.0, 1); got != 1000 {
		t.Errorf("rate 2.0 visited %d rows, want 1000", got)
	}
	// NaN (a rate off a crafted frame) must never reach the skipper's int
	// conversion, which once yielded a negative index.
	if got := sampleStats(t, m, math.NaN(), 1); got != 1000 {
		t.Errorf("rate NaN visited %d rows, want 1000", got)
	}
}

func TestSampleRateZero(t *testing.T) {
	m := FullMembership(10000)
	if got := sampleStats(t, m, 0, 1); got != 0 {
		t.Errorf("rate 0 visited %d rows, want 0", got)
	}
}

func TestSampleEarlyStop(t *testing.T) {
	m := FullMembership(100000)
	count := 0
	m.Sample(0.5, 3, func(i int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d, want 10", count)
	}
}

// TestSampleUniformity checks that, across many seeds, each region of the
// membership is sampled at close to the nominal rate (a coarse uniformity
// check; fine-grained chi-squared happens in the sketch accuracy tests).
func TestSampleUniformity(t *testing.T) {
	const n = 10000
	const buckets = 10
	m := FullMembership(n)
	counts := make([]int, buckets)
	total := 0
	for seed := uint64(0); seed < 50; seed++ {
		m.Sample(0.05, seed, func(i int) bool {
			counts[i*buckets/n]++
			total++
			return true
		})
	}
	mean := float64(total) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-mean) > 0.15*mean {
			t.Errorf("bucket %d has %d samples, mean %.0f (>15%% off)", b, c, mean)
		}
	}
}

func TestBitsetQuick(t *testing.T) {
	// Property: set bits are exactly those reported by Get/Iterate/NextSet.
	f := func(idxs []uint16) bool {
		const n = 1 << 16
		b := NewBitset(n)
		want := make(map[int]bool)
		for _, x := range idxs {
			b.Set(int(x))
			want[int(x)] = true
		}
		if b.Count() != len(want) {
			return false
		}
		got := make(map[int]bool)
		b.Iterate(func(i int) bool { got[i] = true; return true })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !b.Get(i) || !got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBitsetNextSet(t *testing.T) {
	b := NewBitset(200)
	b.Set(5)
	b.Set(64)
	b.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {65, 199}, {199, 199},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.Clear(199)
	if got := b.NextSet(65); got != -1 {
		t.Errorf("NextSet(65) = %d, want -1", got)
	}
	clone := b.Clone()
	clone.Set(0)
	if b.Get(0) {
		t.Error("Clone should not share storage")
	}
}
