package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

// genSkewedStrings builds a table of one string column where value "v0"
// holds frac0 of rows, "v1" holds frac1, and the rest is a long uniform
// tail of rare values.
func genSkewedStrings(id string, n int, frac0, frac1 float64, seed uint64) *table.Table {
	rng := rand.New(rand.NewPCG(seed, seed*3+1))
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	b := table.NewBuilder(schema, n)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		var v string
		switch {
		case u < frac0:
			v = "v0"
		case u < frac0+frac1:
			v = "v1"
		default:
			v = "tail-" + string(rune('a'+rng.IntN(26))) + string(rune('a'+rng.IntN(26))) + string(rune('a'+rng.IntN(26)))
		}
		b.AppendRow(table.Row{table.StringValue(v)})
	}
	return b.Freeze(id)
}

func exactCounts(tbl *table.Table, col string) map[string]int64 {
	c := tbl.MustColumn(col)
	out := map[string]int64{}
	tbl.Members().Iterate(func(i int) bool {
		out[c.Str(i)]++
		return true
	})
	return out
}

// TestMisraGriesGuarantee checks the Misra–Gries bound: every value with
// true frequency > N/(K+1) survives, and stored counts are lower bounds
// within N/(K+1) of truth.
func TestMisraGriesGuarantee(t *testing.T) {
	const n = 30000
	const k = 10
	tbl := genSkewedStrings("mg", n, 0.4, 0.2, 51)
	truth := exactCounts(tbl, "s")

	sk := &MisraGriesSketch{Col: "s", K: k}
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	hh := res.(*HeavyHitters)
	if hh.ScannedRows != n {
		t.Fatalf("ScannedRows = %d", hh.ScannedRows)
	}
	errBound := int64(n)/int64(k+1) + 1
	for v, c := range hh.Counters {
		tc := truth[v.S]
		if c > tc {
			t.Errorf("count for %q overshoots: %d > %d", v.S, c, tc)
		}
		if tc-c > errBound {
			t.Errorf("count for %q undershoots by %d (> bound %d)", v.S, tc-c, errBound)
		}
	}
	// v0 (40%) and v1 (20%) must both be present.
	for _, want := range []string{"v0", "v1"} {
		if _, ok := hh.Counters[table.StringValue(want)]; !ok {
			t.Errorf("heavy value %q missing from summary", want)
		}
	}
}

// TestMisraGriesMergeGuarantee splits the data, merges summaries, and
// re-checks the error bound — the mergeable-summaries property.
func TestMisraGriesMergeGuarantee(t *testing.T) {
	const n = 30000
	const k = 10
	tbl := genSkewedStrings("mgm", n, 0.35, 0.25, 52)
	truth := exactCounts(tbl, "s")

	sk := &MisraGriesSketch{Col: "s", K: k}
	parts := summarizeParts(t, sk, splitTable(tbl, 6))
	merged, err := MergeAll(sk, parts...)
	if err != nil {
		t.Fatal(err)
	}
	hh := merged.(*HeavyHitters)
	if len(hh.Counters) > k {
		t.Fatalf("merged summary has %d > K counters", len(hh.Counters))
	}
	errBound := int64(n)/int64(k+1) + 1
	for v, c := range hh.Counters {
		tc := truth[v.S]
		if c > tc || tc-c > errBound {
			t.Errorf("merged count for %q = %d, truth %d, bound %d", v.S, c, tc, errBound)
		}
	}
	for _, want := range []string{"v0", "v1"} {
		if _, ok := hh.Counters[table.StringValue(want)]; !ok {
			t.Errorf("heavy value %q lost in merge", want)
		}
	}
	if hh.ScannedRows != n {
		t.Errorf("merged ScannedRows = %d", hh.ScannedRows)
	}
}

// TestSampleHeavyHittersTheorem4 checks App. C Thm 4: with
// n = K²·log(K/δ) samples, all values above 1/K frequency are returned
// and none below 1/(4K).
func TestSampleHeavyHittersTheorem4(t *testing.T) {
	const n = 100000
	const k = 10
	tbl := genSkewedStrings("shh", n, 0.30, 0.15, 53) // both > 1/k = 10%
	target := HeavyHittersSampleSize(k, 0.01)
	rate := Rate(target, n)

	failures := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		sk := &SampleHeavyHittersSketch{Col: "s", K: k, Rate: rate, Seed: uint64(trial)}
		parts := summarizeParts(t, sk, splitTable(tbl, 4))
		merged, err := MergeAll(sk, parts...)
		if err != nil {
			t.Fatal(err)
		}
		hh := merged.(*HeavyHitters)
		hits := hh.Hitters()
		found := map[string]bool{}
		for _, h := range hits {
			found[h.Value.S] = true
		}
		ok := found["v0"] && found["v1"]
		// No value below 1/(4K) = 2.5%: every tail value is < 0.2%.
		for _, h := range hits {
			if h.Value.S != "v0" && h.Value.S != "v1" {
				ok = false
			}
		}
		if !ok {
			failures++
		}
	}
	if failures > 1 {
		t.Errorf("Theorem 4 violated in %d/%d trials", failures, trials)
	}
}

func TestHeavyHittersItemsOrder(t *testing.T) {
	hh := &HeavyHitters{K: 3, Counters: map[table.Value]int64{
		table.StringValue("b"): 5,
		table.StringValue("a"): 5,
		table.StringValue("c"): 9,
	}}
	items := hh.Items(1)
	if len(items) != 3 || items[0].Value.S != "c" || items[1].Value.S != "a" || items[2].Value.S != "b" {
		t.Errorf("Items order wrong: %+v", items)
	}
	if got := hh.Items(6); len(got) != 1 {
		t.Errorf("threshold filter wrong: %+v", got)
	}
	empty := &HeavyHitters{}
	if empty.Hitters() != nil {
		t.Error("empty summary should yield no hitters")
	}
}

func TestMisraGriesMergeOrderGuarantee(t *testing.T) {
	// Misra–Gries merges are associative only in the error-bound sense:
	// ties among truncated counters may resolve differently per merge
	// order. What must hold for every order is the guarantee itself —
	// heavy values survive with bounded count error.
	const n = 5000
	const k = 8
	tbl := genSkewedStrings("mgi", n, 0.3, 0.2, 54)
	truth := exactCounts(tbl, "s")
	sk := &MisraGriesSketch{Col: "s", K: k}
	parts := summarizeParts(t, sk, splitTable(tbl, 5))
	rng := rand.New(rand.NewPCG(1, 2))
	errBound := int64(n)/int64(k+1) + 1
	for trial := 0; trial < 10; trial++ {
		hh := mergeTree(t, sk, parts, rng).(*HeavyHitters)
		if len(hh.Counters) > k {
			t.Fatalf("trial %d: %d > K counters", trial, len(hh.Counters))
		}
		for _, want := range []string{"v0", "v1"} {
			c, ok := hh.Counters[table.StringValue(want)]
			if !ok {
				t.Fatalf("trial %d: heavy value %q lost", trial, want)
			}
			if tc := truth[want]; c > tc || tc-c > errBound {
				t.Fatalf("trial %d: count for %q = %d, truth %d, bound %d", trial, want, c, tc, errBound)
			}
		}
	}
}

func TestHeavyHittersIntColumn(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "v", Kind: table.KindInt})
	b := table.NewBuilder(schema, 100)
	for i := 0; i < 100; i++ {
		v := int64(i % 3) // 0,1,2 each ~33%
		b.AppendRow(table.Row{table.IntValue(v)})
	}
	tbl := b.Freeze("ints")
	res, err := (&MisraGriesSketch{Col: "v", K: 5}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	hits := res.(*HeavyHitters).Hitters()
	if len(hits) != 3 {
		t.Errorf("hitters = %+v, want 3 values", hits)
	}
}

// mgStrings is one string column's worth of rows: vals[i] is row i's
// value unless miss[i].
type mgStrings struct {
	vals []string
	miss []bool
}

// zipfStrings draws n rows from dict values with Zipf(s) frequencies,
// about one row in 37 missing.
func zipfStrings(rng *rand.Rand, n, dict int, s float64) mgStrings {
	cdf := make([]float64, dict)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	out := mgStrings{vals: make([]string, n), miss: make([]bool, n)}
	for i := range out.vals {
		out.vals[i] = fmt.Sprintf("z%03d", min(sort.SearchFloat64s(cdf, rng.Float64()*sum), dict-1))
		out.miss[i] = rng.IntN(37) == 0
	}
	return out
}

// embed places the rows of r, in order, at the sorted positions pos of
// a total-row column "s" whose other rows hold junk values the
// membership must keep out of the summary.
func (r mgStrings) embed(id string, total int, pos []int32, members table.Membership) *table.Table {
	vals := make([]string, total)
	for i := range vals {
		vals[i] = fmt.Sprintf("junk%d", i%7)
	}
	miss := table.NewBitset(total)
	for i, p := range pos {
		vals[p] = r.vals[i]
		if r.miss[i] {
			miss.Set(int(p))
		}
	}
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	return table.New(id, schema, []table.Column{table.NewStringColumn(vals, miss)}, members)
}

// full is the plain table of r: every row a member, in order.
func (r mgStrings) full(id string) *table.Table {
	identity := make([]int32, len(r.vals))
	for i := range identity {
		identity[i] = int32(i)
	}
	return r.embed(id, len(r.vals), identity, table.FullMembership(len(r.vals)))
}

// TestMisraGriesTallyOrderFree is the property the tallied path is
// built on: over a small dictionary the summary is a function of the
// multiset of member values. The same rows reversed (which renumbers
// the dictionary), or selected out of a larger column by a range, bitmap
// or sparse membership, all give the bits of Merge(exact counts, Zero);
// and an accumulator given one window of rows cut anywhere returns that
// window's summary.
func TestMisraGriesTallyOrderFree(t *testing.T) {
	rng, _ := seedtest.Rand(t)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(6000)
		rows := zipfStrings(rng, n, 1+rng.IntN(400), 0.5+rng.Float64())
		k := 1 + rng.IntN(40)
		sk := &MisraGriesSketch{Col: "s", K: k}

		base := rows.full("base")
		want := refMisraGriesTally(t, base, "s", k)
		if len(want.Counters) > k {
			t.Fatalf("trial %d: reference holds %d > K=%d counters", trial, len(want.Counters), k)
		}

		reversed := mgStrings{vals: slices.Clone(rows.vals), miss: slices.Clone(rows.miss)}
		slices.Reverse(reversed.vals)
		slices.Reverse(reversed.miss)

		// Scatter the rows over a column three times as long.
		total := 3 * n
		pos := make([]int32, 0, n)
		bits := table.NewBitset(total)
		for _, p := range rng.Perm(total)[:n] {
			pos = append(pos, int32(p))
			bits.Set(p)
		}
		slices.Sort(pos)
		shifted := make([]int32, n)
		for i := range shifted {
			shifted[i] = int32(n + i)
		}

		variants := []*table.Table{
			base,
			reversed.full("reversed"),
			rows.embed("range", total, shifted, table.NewRangeMembership(n, 2*n, total)),
			rows.embed("bitmap", total, pos, table.NewBitmapMembership(bits)),
			rows.embed("sparse", total, pos, table.NewSparseMembership(pos, total)),
		}
		for _, v := range variants {
			got, err := sk.Summarize(v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d k=%d): %s summary differs from Merge(exact counts, Zero)\n got %+v\nwant %+v", trial, n, k, v.ID(), got, want)
			}

			// The fold of one window of rows, cut anywhere, is that
			// window's summary.
			max := v.Members().Max()
			lo := rng.IntN(max + 1)
			hi := lo + rng.IntN(max-lo+1)
			chunk := v.WithMembership(fmt.Sprintf("%s#%d", v.ID(), lo), rowWindow(v.Members(), lo, hi))
			first, err := sk.Summarize(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got := accumulate(t, sk, []*table.Table{chunk}); !reflect.DeepEqual(got, first) {
				t.Fatalf("trial %d: %s fold over [%d, %d) differs from its summary\n got %+v\nwant %+v", trial, v.ID(), lo, hi, got, first)
			}
		}
	}
}

// TestMisraGriesTallyAccuracy asserts what counting before pruning
// buys on the distribution the benchmark queries (340 airports,
// Zipf 1.08, K = 10, where ten counters hold about half the rows):
// every counter is short of the truth by at most the table's (K+1)-th
// largest exact count — far inside N/(K+1) — and the decision rule
// lists at least the hitters the stream rule's answer lists.
func TestMisraGriesTallyAccuracy(t *testing.T) {
	const n, dict, k = 200000, 340, 10
	rows := zipfStrings(rand.New(rand.NewPCG(7, 8)), n, dict, 1.08)
	tbl := rows.full("zipf")

	truth := map[table.Value]int64{}
	col := tbl.MustColumn("s")
	for i := 0; i < n; i++ {
		truth[col.Value(i)]++
	}
	exact := make([]int64, 0, len(truth))
	for _, c := range truth {
		exact = append(exact, c)
	}
	slices.Sort(exact)
	excess := exact[len(exact)-1-k]
	if excess > n/(k+1) {
		t.Fatalf("(K+1)-th largest count %d exceeds N/(K+1) = %d", excess, n/(k+1))
	}

	res, err := (&MisraGriesSketch{Col: "s", K: k}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	got := res.(*HeavyHitters)
	if len(got.Counters) == 0 || len(got.Counters) > k {
		t.Fatalf("%d counters, want 1..%d", len(got.Counters), k)
	}
	for v, c := range got.Counters {
		if c > truth[v] || truth[v]-c > excess {
			t.Errorf("counter for %v = %d, truth %d: not a lower bound within the (K+1)-th count %d", v, c, truth[v], excess)
		}
	}
	stream := refMisraGries(tbl, "s", k)
	if g, s := len(got.Hitters()), len(stream.Hitters()); g < s {
		t.Errorf("tally lists %d hitters, the stream rule %d", g, s)
	}
	t.Logf("(K+1)-th count %d of N/(K+1) %d; hitters: tally %d, stream %d", excess, n/(k+1), len(got.Hitters()), len(stream.Hitters()))
}

// TestMisraGriesHugeKAllocation: workers decode K off the wire with no
// scheduler in front to bound it, so nothing on the scan path may be
// sized by K alone. A sketch decoded with K = 2^40 summarises a 10-row
// table — every column path, Summarize and accumulator — inside a fixed
// allocation budget, and the sample-size formula does not overflow.
func TestMisraGriesHugeKAllocation(t *testing.T) {
	const hugeK = 1 << 40
	schema := table.NewSchema(
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "c", Kind: table.KindDate},
	)
	strs := []string{"a", "b", "a", "c", "a", "b", "d", "a", "e", "a"}
	ints := make([]int64, len(strs))
	doubles := make([]float64, len(strs))
	for i := range strs {
		ints[i], doubles[i] = int64(i%3), float64(i%4)
	}
	tbl := table.New("tiny", schema, []table.Column{
		table.NewStringColumn(strs, nil),
		table.NewIntColumn(table.KindInt, ints, nil),
		table.NewDoubleColumn(doubles, nil),
		table.NewIntColumn(table.KindDate, ints, nil),
	}, table.FullMembership(len(strs)))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, col := range []string{"s", "i", "d", "c"} {
		wireBytes, ok := AppendSketchWire(nil, &MisraGriesSketch{Col: col, K: hugeK})
		if !ok {
			t.Fatal("MisraGriesSketch has no wire codec")
		}
		sk, _, err := DecodeSketchWire(wireBytes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sk.Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if got := accumulate(t, sk, chunkViews(tbl, 3)); !reflect.DeepEqual(got, res) {
			t.Errorf("%s: fold of 3 chunks %+v differs from Summarize %+v", col, got, res)
		}
		hh := res.(*HeavyHitters)
		if hh.ScannedRows != int64(len(strs)) || len(hh.Counters) == 0 || len(hh.Counters) > len(strs) {
			t.Errorf("%s: summary %+v", col, hh)
		}
	}
	newMGCodes(hugeK, mgDenseDictMax+1) // the code-keyed stream's map
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("K = 2^40 over a 10-row table allocated %d bytes, budget 1 MiB", got)
	}

	if n := HeavyHittersSampleSize(hugeK, 0.01); n <= hugeK {
		t.Errorf("HeavyHittersSampleSize(2^40) = %d, want more than K", n)
	}
	if n := HeavyHittersSampleSize(math.MaxInt, 0.01); n != math.MaxInt {
		t.Errorf("HeavyHittersSampleSize(MaxInt) = %d, want it clamped to MaxInt", n)
	}
}
