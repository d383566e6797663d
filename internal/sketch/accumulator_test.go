package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/table"
)

// rowWindow returns the members of m within physical rows [lo, hi), in
// whichever representation table.FilterMembership picks for them.
func rowWindow(m table.Membership, lo, hi int) table.Membership {
	return table.FilterMembership(m, func(i int) bool { return i >= lo && i < hi })
}

// chunkViews splits a table into n fixed physical-row-range views
// sharing its storage, each under its own ID ("<id>#<start>"), so
// sampled sketches derive the same per-view seeds on both sides of an
// equivalence check.
func chunkViews(tbl *table.Table, n int) []*table.Table {
	max := tbl.Members().Max()
	per := (max + n - 1) / n
	if per < 1 {
		per = 1
	}
	var out []*table.Table
	for lo := 0; lo < max; lo += per {
		hi := lo + per
		if hi > max {
			hi = max
		}
		out = append(out, tbl.WithMembership(fmt.Sprintf("%s#%d", tbl.ID(), lo), rowWindow(tbl.Members(), lo, hi)))
	}
	return out
}

// accumulate folds the chunks' summaries with MergeAll.
func accumulate(t *testing.T, sk Sketch, chunks []*table.Table) Result {
	t.Helper()
	r, err := MergeAll(sk, summarizeParts(t, sk, chunks)...)
	if err != nil {
		t.Fatalf("%s: %v", sk.Name(), err)
	}
	return r
}

// TestMergeTreeMatchesSequentialFold proves the engine's pairwise merge
// tree equal to the sequential MergeAll fold over shuffled chunk orders
// for every shipped deterministic sketch (the Misra–Gries bound version
// is TestMisraGriesMergeTreeGuarantee).
func TestMergeTreeMatchesSequentialFold(t *testing.T) {
	whole := genTable("mts", 6000, 77)
	parts := splitTable(whole, 7)
	catSpec := StringBucketsFromBounds([]string{"beta", "epsilon", "gamma"}, false)
	sketches := []Sketch{
		&HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 13)},
		&HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 13), Rate: 0.4, Seed: 5},
		&HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 40), Rate: 0.3, Seed: 6},
		&Histogram2DSketch{XCol: "x", YCol: "cat", X: NumericBuckets(table.KindDouble, 0, 100, 10), Y: catSpec},
		&RangeSketch{Col: "x"},
		&RangeSketch{Col: "cat"},
		&DistinctCountSketch{Col: "id"},
		&SampleHeavyHittersSketch{Col: "cat", K: 4, Rate: 0.5, Seed: 2},
	}
	rng := rand.New(rand.NewPCG(31, 32))
	for _, sk := range sketches {
		partials := summarizeParts(t, sk, parts)
		want, err := MergeAll(sk, partials...)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			shuffled := append([]Result(nil), partials...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, err := MergeTree(sk, shuffled...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: merge tree over shuffled chunks differs from sequential fold", sk.Name(), trial)
			}
		}
	}
	// Moments carries floating-point power sums, whose addition is not
	// associative: tree orders agree only to rounding.
	msk := &MomentsSketch{Col: "x", K: 3}
	partials := summarizeParts(t, msk, parts)
	wantR, err := MergeAll(msk, partials...)
	if err != nil {
		t.Fatal(err)
	}
	want := wantR.(*Moments)
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Result(nil), partials...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		gotR, err := MergeTree(msk, shuffled...)
		if err != nil {
			t.Fatal(err)
		}
		got := gotR.(*Moments)
		if got.Count != want.Count || got.Missing != want.Missing || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("moments trial %d: exact fields differ", trial)
		}
		for i := range want.Sums {
			if diff := math.Abs(got.Sums[i] - want.Sums[i]); diff > 1e-9*math.Abs(want.Sums[i]) {
				t.Fatalf("moments trial %d: Sums[%d] = %g vs %g", trial, i, got.Sums[i], want.Sums[i])
			}
		}
	}
	// Zero inputs fold to Zero.
	z, err := MergeTree(sketches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(z, sketches[0].Zero()) {
		t.Error("empty MergeTree != Zero")
	}
}

// TestMisraGriesMergeTreeGuarantee is the merge-order test for the one
// approximation sketch: a pairwise tree over shuffled chunk orders must
// keep the Misra–Gries guarantee (heavy values survive, counts are
// lower bounds within N/(K+1)), though counter values may differ from
// the sequential fold's.
func TestMisraGriesMergeTreeGuarantee(t *testing.T) {
	const n = 20000
	const k = 8
	tbl := genSkewedStrings("mgt", n, 0.35, 0.22, 58)
	truth := exactCounts(tbl, "s")
	sk := &MisraGriesSketch{Col: "s", K: k}
	partials := summarizeParts(t, sk, splitTable(tbl, 6))
	rng := rand.New(rand.NewPCG(41, 42))
	errBound := int64(n)/int64(k+1) + 1
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Result(nil), partials...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		merged, err := MergeTree(sk, shuffled...)
		if err != nil {
			t.Fatal(err)
		}
		hh := merged.(*HeavyHitters)
		if len(hh.Counters) > k {
			t.Fatalf("trial %d: %d > K counters", trial, len(hh.Counters))
		}
		if hh.ScannedRows != n {
			t.Fatalf("trial %d: ScannedRows = %d", trial, hh.ScannedRows)
		}
		for v, c := range hh.Counters {
			tc := truth[v.S]
			if c > tc || tc-c > errBound {
				t.Fatalf("trial %d: count for %q = %d, truth %d, bound %d", trial, v.S, c, tc, errBound)
			}
		}
		for _, want := range []string{"v0", "v1"} {
			if _, ok := hh.Counters[table.StringValue(want)]; !ok {
				t.Fatalf("trial %d: heavy value %q lost", trial, want)
			}
		}
	}
}

// TestMGAccumulatorContinuesStream: the fold of one partition's summary
// is that summary — Merge from Zero keeps Summarize's counters bit for
// bit — on every column path and membership shape: the tallied small
// dictionaries (s, sm), the streamed large one (sl) and the typed
// numeric keys (im, dm).
func TestMGAccumulatorContinuesStream(t *testing.T) {
	for _, tc := range eqTables(20000) {
		for _, col := range []string{"s", "sm", "sl", "im", "dm"} {
			sk := &MisraGriesSketch{Col: col, K: 10}
			want, err := sk.Summarize(tc.t)
			if err != nil {
				t.Fatal(err)
			}
			if got := accumulate(t, sk, []*table.Table{tc.t}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: the fold of one summary differs from Summarize\n got %+v\nwant %+v", tc.name, col, got, want)
			}
		}
	}
}

// TestMGAccumulatorFlushAcrossColumns folds the summaries of chunks of
// partitions with different dictionaries, one of them a short cycle of
// four values, and re-checks the Misra–Gries guarantee over the combined
// data.
func TestMGAccumulatorFlushAcrossColumns(t *testing.T) {
	const k = 10
	a := genSkewedStrings("mgfa", 15000, 0.4, 0.2, 62)
	b := genSkewedStrings("mgfb", 15000, 0.35, 0.25, 63)
	// A third partition cycling through four values.
	vals := make([]string, 4000)
	for i := range vals {
		vals[i] = []string{"v0", "v0", "v1", "tail-zzz"}[i%4]
	}
	comp := table.New("mgfc",
		table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString}),
		[]table.Column{table.NewStringColumn(vals, nil)},
		table.FullMembership(4000))

	truth := exactCounts(a, "s")
	for v, c := range exactCounts(b, "s") {
		truth[v] += c
	}
	for v, c := range exactCounts(comp, "s") {
		truth[v] += c
	}
	var n int64
	for _, c := range truth {
		n += c
	}

	sk := &MisraGriesSketch{Col: "s", K: k}
	var chunks []*table.Table
	for _, tbl := range []*table.Table{a, comp, b} {
		chunks = append(chunks, chunkViews(tbl, 3)...)
	}
	hh := accumulate(t, sk, chunks).(*HeavyHitters)
	if hh.ScannedRows != n {
		t.Fatalf("ScannedRows = %d, want %d", hh.ScannedRows, n)
	}
	if len(hh.Counters) > k {
		t.Fatalf("%d > K counters", len(hh.Counters))
	}
	errBound := n/int64(k+1) + 1
	for v, c := range hh.Counters {
		tc := truth[v.S]
		if c > tc || tc-c > errBound {
			t.Errorf("count for %q = %d, truth %d, bound %d", v.S, c, tc, errBound)
		}
	}
	for _, want := range []string{"v0", "v1"} {
		if _, ok := hh.Counters[table.StringValue(want)]; !ok {
			t.Errorf("heavy value %q lost across column flushes", want)
		}
	}
}

// shapeSketch records merge structure: its summaries are strings and
// Merge parenthesizes its operands in order, so two folds agree only if
// they merged the same operands in the same order in the same shape.
type shapeSketch struct{}

func (shapeSketch) Name() string { return "shape" }
func (shapeSketch) Zero() Result { return "" }
func (shapeSketch) Summarize(t *table.Table) (Result, error) {
	return t.ID(), nil
}
func (shapeSketch) Merge(a, b Result) (Result, error) {
	return "(" + a.(string) + " " + b.(string) + ")", nil
}

// TestTreeFoldShapeIgnoresArrivalOrder pins the contract determinism
// rests on: whatever order the inputs arrive in, TreeFold merges the
// same neighbors, left operand first, and its pending nodes always cover
// exactly the inputs supplied.
func TestTreeFoldShapeIgnoresArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 8))
	for n := 0; n <= 13; n++ {
		in := make([]Result, n)
		for i := range in {
			in[i] = fmt.Sprint(i)
		}
		want, err := MergeTree(shapeSketch{}, in...)
		if err != nil {
			t.Fatal(err)
		}
		if n == 5 && want != "(((0 1) (2 3)) 4)" {
			t.Fatalf("n=5: tree shape %q", want)
		}
		for trial := 0; trial < 20; trial++ {
			f := NewTreeFold(shapeSketch{}, n)
			for k, i := range rng.Perm(n) {
				if err := f.Put(i, in[i]); err != nil {
					t.Fatal(err)
				}
				covered := 0
				for _, p := range f.Pending() {
					covered += len(strings.Fields(strings.NewReplacer("(", "", ")", "").Replace(p.(string))))
				}
				if covered != k+1 {
					t.Fatalf("n=%d: pending nodes cover %d inputs after %d puts", n, covered, k+1)
				}
			}
			if got := f.Result(); got != want {
				t.Fatalf("n=%d: arrival order changed the tree: %q, want %q", n, got, want)
			}
		}
	}
}

// TestTreeFoldInPlaceMatchesCopying checks the fold that owns its nodes
// against the one that copies: for P = 0…17 inputs, arriving in the
// orders the shape test draws, a NewTreeFold that merges an
// InPlaceMerger's nodes in place encodes the same root as MergeTree,
// which merges with Merge alone — for a sampled 2-D histogram, and for
// a MultiSketch that batches one with sketches that merge by copy.
func TestTreeFoldInPlaceMatchesCopying(t *testing.T) {
	parts := splitTable(genTable("inplace", 17*300, 4), 17)
	hist := &Histogram2DSketch{XCol: "x", YCol: "cat", Rate: 0.5, Seed: 3,
		X: NumericBuckets(table.KindDouble, 0, 100, 9),
		Y: StringBucketsFromDistinct([]string{"alpha", "beta", "delta", "epsilon", "gamma"}, 5)}
	multi, err := NewMultiSketch(hist, &MisraGriesSketch{Col: "cat", K: 3},
		&HistogramSketch{Col: "x", Buckets: NumericBuckets(table.KindDouble, 0, 100, 7)})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(r Result) []byte {
		b, ok := AppendResultWire(nil, r)
		if !ok {
			t.Fatalf("%T: no codec", r)
		}
		return b
	}
	rng := rand.New(rand.NewPCG(5, 8))
	for n := 0; n <= 17; n++ {
		orders := make([][]int, 20)
		for trial := range orders {
			orders[trial] = rng.Perm(n)
		}
		for _, sk := range []Sketch{hist, multi} {
			sums := summarizeParts(t, sk, parts[:n])
			want, err := MergeTree(sk, sums...)
			if err != nil {
				t.Fatal(err)
			}
			for _, order := range orders {
				f := NewTreeFold(sk, n)
				for _, i := range order {
					// The fold consumes its inputs: give it copies.
					if err := f.Put(i, resultRoundTrip(t, sums[i])); err != nil {
						t.Fatal(err)
					}
				}
				if got := f.Result(); !bytes.Equal(encode(got), encode(want)) {
					t.Fatalf("%s, n=%d, order %v: in-place fold %+v, copying fold %+v", sk.Name(), n, order, got, want)
				}
			}
		}
	}
}
