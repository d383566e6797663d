package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// selColumns builds one stored column of every kind over n rows, with
// or without a missing mask, plus the constants worth comparing each
// against: below, inside and above the value range, kind-crossing
// numerics, NaN/±Inf, and present/absent dictionary strings.
func selColumns(n int, withMissing bool, rng *rand.Rand) map[string]struct {
	col    Column
	consts []Value
} {
	var mi, md, ms, mt *Bitset
	if withMissing {
		mi, md, ms, mt = NewBitset(n), NewBitset(n), NewBitset(n), NewBitset(n)
	}
	ints := make([]int64, n)
	dates := make([]int64, n)
	doubles := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		ints[i] = rng.Int64N(41) - 20
		dates[i] = 1_500_000_000_000 + rng.Int64N(100)
		doubles[i] = float64(rng.IntN(80))/4 - 10
		strs[i] = fmt.Sprintf("k%02d", 2*rng.IntN(15)) // even keys only
		if withMissing {
			for _, m := range []*Bitset{mi, md, ms, mt} {
				if rng.IntN(5) == 0 {
					m.Set(i)
				}
			}
		}
	}
	if n > 2 {
		doubles[1] = math.NaN() // Compare orders NaN equal to everything
		ints[2] = math.MaxInt64 // float64 rounding at the top of the range
	}
	numeric := []Value{
		IntValue(-100), IntValue(-20), IntValue(0), IntValue(7), IntValue(20), IntValue(100),
		DoubleValue(-10.25), DoubleValue(0), DoubleValue(2.5), DoubleValue(9.75), DoubleValue(1e300),
		DoubleValue(math.NaN()), DoubleValue(math.Inf(1)), DoubleValue(math.Inf(-1)),
		DoubleValue(math.MaxInt64), IntValue(math.MaxInt64),
		{Kind: KindDate, I: 1_500_000_000_050}, IntValue(1_500_000_000_050), DoubleValue(1_500_000_000_050.5),
		MissingValue(KindInt),
	}
	strings := []Value{
		StringValue(""), StringValue("k00"), StringValue("k07"), StringValue("k14"),
		StringValue("k28"), StringValue("k29"), StringValue("zzz"), MissingValue(KindString),
	}
	return map[string]struct {
		col    Column
		consts []Value
	}{
		"int":    {NewIntColumn(KindInt, ints, mi), numeric},
		"date":   {NewIntColumn(KindDate, dates, mt), numeric},
		"double": {NewDoubleColumn(doubles, md), numeric},
		"string": {NewStringColumn(strs, ms), strings},
	}
}

// selMemberships are the parent shapes Select must handle: every
// built-in representation, dense and sparse, unaligned restrictions,
// empty parents, and a wrapper Select knows nothing about.
func selMemberships(n int) map[string]Membership {
	dense := NewBitset(n)
	var sparse, denseList []int32
	for i := 0; i < n; i++ {
		if genMix(uint64(i))%10 < 6 {
			dense.Set(i)
		}
		if genMix(uint64(i)+99)%53 == 0 {
			sparse = append(sparse, int32(i))
		}
		if i%3 != 0 {
			denseList = append(denseList, int32(i))
		}
	}
	clustered := NewBitset(n)
	for i := n / 2; i < n/2+n/8; i++ {
		clustered.Set(i)
	}
	bm := NewBitmapMembership(dense)
	return map[string]Membership{
		"full":             FullMembership(n),
		"range":            NewRangeMembership(n/7, n-n/5, n),
		"range-empty":      NewRangeMembership(5, 5, n),
		"bitmap":           bm,
		"bitmap-clustered": NewBitmapMembership(clustered),
		"bitmap-restrict":  bitmapWindow(dense, 70, n-130),
		"bitmap-empty":     NewBitmapMembership(NewBitset(n)),
		"sparse":           NewSparseMembership(sparse, n),
		"sparse-dense":     NewSparseMembership(denseList, n),
		"sparse-empty":     NewSparseMembership(nil, n),
		"wrapped":          cancelMembership{Membership: bm, probe: func() bool { return false }},
	}
}

var allCmpOps = []CmpOp{CmpLT, CmpLE, CmpEQ, CmpNE, CmpGE, CmpGT}

// TestSelectMatchesFilterMembership is the primitive's differential
// oracle: Select over a ConstCompare must return exactly the membership
// FilterMembership builds from the boxed Value.Compare predicate — the
// same rows in the same representation.
func TestSelectMatchesFilterMembership(t *testing.T) {
	const n = 4096 + 700 // more than one batch, not word-aligned
	rng := rand.New(rand.NewPCG(20, 21))
	for _, withMissing := range []bool{false, true} {
		for kind, cc := range selColumns(n, withMissing, rng) {
			for mname, m := range selMemberships(n) {
				for _, c := range cc.consts {
					for _, op := range allCmpOps {
						cmp, ok := NewConstCompare(cc.col, op, c)
						if !ok {
							t.Fatalf("%s: NewConstCompare(%v %v) not ok", kind, op, c)
						}
						got := Select(m, &cmp)
						want := FilterMembership(m, func(i int) bool {
							v := cc.col.Value(i)
							return !v.Missing && op.Holds(v.Compare(c))
						})
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s missing=%v %s: op %d const %v: got %T size %d, want %T size %d",
								kind, withMissing, mname, op, c, got, got.Size(), want, want.Size())
						}
					}
				}
			}
		}
	}
}

// TestSelectRepresentationThreshold pins the 1/32 density rule on both
// sides of the boundary for span-evaluated and gathered parents.
func TestSelectRepresentationThreshold(t *testing.T) {
	const n = 6400
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	col := NewIntColumn(KindInt, vals, nil)
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	for _, parent := range []Membership{FullMembership(n), NewSparseMembership(all, n)} {
		for _, tc := range []struct {
			keep  int64
			dense bool
		}{{n / 32, true}, {n/32 - 1, false}, {0, false}, {n, true}} {
			cmp, _ := NewConstCompare(col, CmpLT, IntValue(tc.keep))
			got := Select(parent, &cmp)
			if _, isBitmap := got.(*BitmapMembership); isBitmap != tc.dense || got.Size() != int(tc.keep) {
				t.Errorf("%T keep %d: got %T of %d rows, want dense=%v", parent, tc.keep, got, got.Size(), tc.dense)
			}
		}
	}
}

// TestConstCompareRejects lists what the primitive hands back to the
// caller's row path.
func TestConstCompareRejects(t *testing.T) {
	ints := NewIntColumn(KindInt, []int64{1, 2}, nil)
	strs := NewStringColumn([]string{"a", "b"}, nil)
	doubles := NewDoubleColumn([]float64{1, 2}, nil)
	for _, tc := range []struct {
		col Column
		c   Value
	}{
		{ints, StringValue("a")},
		{strs, IntValue(1)},
		{doubles, StringValue("a")},
	} {
		if _, ok := NewConstCompare(tc.col, CmpEQ, tc.c); ok {
			t.Errorf("NewConstCompare(%T, %v) ok, want rejected", tc.col, tc.c)
		}
	}
}

// TestSpanAndGatherBits checks the two bit-extraction helpers against
// Bitset.Get at unaligned offsets.
func TestSpanAndGatherBits(t *testing.T) {
	const n = 1000
	b := NewBitset(n)
	for i := 0; i < n; i++ {
		if genMix(uint64(i))%3 == 0 {
			b.Set(i)
		}
	}
	out := make([]uint64, wordsFor(n))
	for _, span := range [][2]int{{0, n}, {1, 65}, {63, 64}, {64, 128}, {100, 997}, {999, 1000}, {5, 5}} {
		for i := range out {
			out[i] = ^uint64(0)
		}
		SpanBits(b, span[0], span[1], out)
		for k := 0; k < wordsFor(span[1]-span[0])*64; k++ {
			want := k < span[1]-span[0] && b.Get(span[0]+k)
			if got := out[k>>6]>>(uint(k)&63)&1 == 1; got != want {
				t.Fatalf("SpanBits%v bit %d = %v, want %v", span, k, got, want)
			}
		}
	}
	rows := []int32{999, 3, 64, 63, 500, 0}
	GatherBits(b, rows, out)
	for k, r := range rows {
		if got := out[0]>>uint(k)&1 == 1; got != b.Get(int(r)) {
			t.Fatalf("GatherBits row %d = %v, want %v", r, got, b.Get(int(r)))
		}
	}
	SpanBits(nil, 3, 200, out)
	GatherBits(nil, rows, out[4:])
	if !allZero(out[:5]) {
		t.Fatal("nil bitset must read as all clear")
	}
}
