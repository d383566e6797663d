package sketch

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/table"
)

func TestFindText(t *testing.T) {
	tbl := genTable("ft", 5000, 41)
	sk := &FindTextSketch{
		Col:     "cat",
		Pattern: "GAMMA",
		Kind:    MatchExact,
		Order:   table.Asc("id"),
		Extra:   []string{"cat"},
	}
	// Case-insensitive exact match on "gamma".
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	f := res.(*FindResult)
	if f.Match == nil {
		t.Fatal("expected a match")
	}
	if f.Match[1].S != "gamma" {
		t.Errorf("match value = %v", f.Match[1])
	}
	// The match must be the first gamma row by id.
	cat := tbl.MustColumn("cat")
	var wantID int64 = -1
	var wantCount int64
	tbl.Members().Iterate(func(i int) bool {
		if cat.Value(i).String() == "gamma" {
			wantCount++
			if wantID == -1 {
				wantID = tbl.MustColumn("id").Value(i).I
			}
		}
		return true
	})
	if f.Match[0].I != wantID {
		t.Errorf("first match id = %d, want %d", f.Match[0].I, wantID)
	}
	if f.MatchesAfter != wantCount {
		t.Errorf("MatchesAfter = %d, want %d", f.MatchesAfter, wantCount)
	}

	// Case-sensitive exact match on "GAMMA" finds nothing.
	cs := &FindTextSketch{Col: "cat", Pattern: "GAMMA", Kind: MatchExact, CaseSensitive: true, Order: table.Asc("id")}
	res, err = cs.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.(*FindResult).Match != nil {
		t.Error("case-sensitive search should find nothing")
	}
}

func TestFindTextSubstringAndRegex(t *testing.T) {
	tbl := genTable("ft2", 1000, 42)
	sub := &FindTextSketch{Col: "cat", Pattern: "amm", Kind: MatchSubstring, Order: table.Asc("id")}
	res, err := sub.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.(*FindResult).Match == nil {
		t.Error("substring 'amm' should match gamma")
	}
	re := &FindTextSketch{Col: "cat", Pattern: "^(gam|bet)a?.*$", Kind: MatchRegex, Order: table.Asc("id")}
	res, err = re.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.(*FindResult).Match == nil {
		t.Error("regex should match")
	}
	bad := &FindTextSketch{Col: "cat", Pattern: "([", Kind: MatchRegex, Order: table.Asc("id")}
	if _, err := bad.Summarize(tbl); err == nil {
		t.Error("invalid regex should error")
	}
}

func TestFindTextFromAndMerge(t *testing.T) {
	tbl := genTable("ft3", 4000, 43)
	first := &FindTextSketch{Col: "cat", Pattern: "beta", Kind: MatchExact, Order: table.Asc("id"), Extra: []string{"cat"}}
	res, err := first.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	f1 := res.(*FindResult)
	// Find-next from the first match.
	next := &FindTextSketch{Col: "cat", Pattern: "beta", Kind: MatchExact, Order: table.Asc("id"), Extra: []string{"cat"}, From: f1.Match[:1]}
	res, err = next.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	f2 := res.(*FindResult)
	if f2.Match == nil || f2.Match[0].I <= f1.Match[0].I {
		t.Errorf("find-next should advance: %v -> %v", f1.Match, f2.Match)
	}
	if f2.MatchesBefore != 1 {
		t.Errorf("MatchesBefore = %d, want 1", f2.MatchesBefore)
	}
	if f1.MatchesAfter != f2.MatchesAfter+1 {
		t.Errorf("counts inconsistent: %d vs %d", f1.MatchesAfter, f2.MatchesAfter)
	}
	// Mergeability: split and merge equals whole.
	checkExactMergeability(t, next, tbl, 5)
}

// TestQuantileTheorem2 checks App. C Thm 2: with O(V² log 1/δ) samples,
// the returned element's relative rank is within ε = 1/(2V) of the
// requested quantile, with probability 1-δ.
func TestQuantileTheorem2(t *testing.T) {
	const rows = 50000
	const vPix = 50
	tbl := genTable("q", rows, 44)
	order := table.Asc("x")

	// Reference ranks: sorted x values.
	xcol := tbl.MustColumn("x")
	var xs []float64
	var missing int
	tbl.Members().Iterate(func(i int) bool {
		if xcol.Value(i).Missing {
			missing++
			return true
		}
		xs = append(xs, xcol.Value(i).Double())
		return true
	})
	sort.Float64s(xs)

	n := QuantileSampleSize(vPix, 0.01)
	failures := 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		sk := &QuantileSketch{Order: order, SampleSize: n, Seed: uint64(trial)}
		res, err := sk.Summarize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		set := res.(*SampleSet)
		if set.Total != int64(rows) {
			t.Fatalf("Total = %d, want %d", set.Total, rows)
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			row := set.Quantile(q, order)
			if row == nil {
				t.Fatal("nil quantile row")
			}
			if row[0].Missing {
				continue // missing values sort first; only plausible at tiny q
			}
			v := row[0].Double()
			rank := float64(sort.SearchFloat64s(xs, v)+missing) / float64(rows)
			// ε = 1/(2V) from the theorem plus 3σ of the sample's own
			// binomial noise at this sample size.
			slack := 1.0/(2*vPix) + 3*math.Sqrt(0.25/float64(n))
			if math.Abs(rank-q) > slack {
				failures++
			}
		}
	}
	if failures > 3 {
		t.Errorf("quantile rank bound violated %d times", failures)
	}
}

func TestQuantileMergeBottomK(t *testing.T) {
	tbl := genTable("qm", 8000, 45)
	sk := &QuantileSketch{Order: table.Asc("x"), SampleSize: 100, Seed: 9}
	parts := splitTable(tbl, 6)
	partials := summarizeParts(t, sk, parts)
	checkMergeInvariance(t, sk, partials)
	merged, err := MergeAll(sk, partials...)
	if err != nil {
		t.Fatal(err)
	}
	set := merged.(*SampleSet)
	if len(set.Items) != 100 {
		t.Fatalf("merged sample size = %d, want 100", len(set.Items))
	}
	// The merged sample must hold the 100 globally smallest hashes.
	var all []SampleItem
	for _, p := range partials {
		all = append(all, p.(*SampleSet).Items...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Hash < all[j].Hash })
	for i := 0; i < 100; i++ {
		if set.Items[i].Hash != all[i].Hash {
			t.Fatalf("bottom-k violated at %d", i)
		}
	}
	if set.Total != 8000 {
		t.Errorf("Total = %d", set.Total)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	sk := &QuantileSketch{Order: table.Asc("x"), SampleSize: 10, Seed: 1}
	empty := sk.Zero().(*SampleSet)
	if empty.Quantile(0.5, table.Asc("x")) != nil {
		t.Error("empty sample should return nil")
	}
	tbl := genTable("qe", 100, 46)
	res, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	set := res.(*SampleSet)
	if got := set.Quantile(-1, sk.Order); got == nil {
		t.Error("q<0 clamps to 0")
	}
	if got := set.Quantile(2, sk.Order); got == nil {
		t.Error("q>1 clamps to 1")
	}
	if _, err := (&QuantileSketch{Order: table.Asc("zzz"), SampleSize: 5}).Summarize(tbl); err == nil {
		t.Error("unknown column should error")
	}
}

// TestQuantileZeroClampsK: Zero, Summarize of an empty table and
// Merge(Zero, Zero) are the same summary, K clamped to 1, whatever a
// non-positive SampleSize says.
func TestQuantileZeroClampsK(t *testing.T) {
	empty := genTable("qz", 0, 47)
	for _, n := range []int{0, -3} {
		sk := &QuantileSketch{Order: table.Asc("x"), SampleSize: n, Seed: 1}
		zero := sk.Zero()
		summ, err := sk.Summarize(empty)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := sk.Merge(sk.Zero(), sk.Zero())
		if err != nil {
			t.Fatal(err)
		}
		want := &SampleSet{K: 1}
		for name, got := range map[string]Result{"Zero": zero, "Summarize(empty)": summ, "Merge(Zero, Zero)": merged} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("SampleSize %d: %s = %+v, want %+v", n, name, got, want)
			}
		}
	}
}

// TestQuantileAllocationNotSizedBySampleSize: SampleSize is a wire
// field, so a crafted request must not size a worker's allocation. One
// Summarize with SampleSize 2²⁰ over a 100-row partition allocates for
// its 100 rows, not 32 B × 2²⁰ of heap capacity, and its answer is the
// one SampleSize 100 gives (every row sampled) with K left as sent.
func TestQuantileAllocationNotSizedBySampleSize(t *testing.T) {
	tbl := genTable("qalloc", 100, 3)
	sk := &QuantileSketch{Order: table.Asc("x"), SampleSize: 1 << 20, Seed: 5}
	if _, err := sk.Summarize(tbl); err != nil { // warm the column caches
		t.Fatal(err)
	}
	// One P for the measured window, as testing.AllocsPerRun pins it: a
	// sync.Pool's per-P slot is missed by a goroutine that changes P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := sk.Summarize(tbl)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Errorf("SampleSize 2^20 over 100 rows: Summarize allocated %d B, want at most 256 KiB", grew)
	}
	small, err := (&QuantileSketch{Order: sk.Order, SampleSize: 100, Seed: 5}).Summarize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	want := small.(*SampleSet)
	want.K = 1 << 20
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SampleSize 2^20 over 100 rows: %+v, want %+v", got, want)
	}
}
