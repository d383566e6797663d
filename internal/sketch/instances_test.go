package sketch_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/testkit"
)

// The properties in this file hold for every sketch the differential
// harness drives — testkit.Instances, which covers every wire sketch
// type — over generated partitions of every column kind and membership
// shape: a partition is summarized one way, by Summarize, and the
// engine's fold of it is that summary.

// forInstances calls f with every harness sketch instance and the
// generated partitions of a few seeds.
func forInstances(f func(sk sketch.Sketch, parts []*table.Table)) {
	for seed := uint64(1); seed <= 6; seed++ {
		parts, info := table.GenPartitions(fmt.Sprintf("inst%d", seed), seed, 500, 8)
		for _, sk := range testkit.Instances(seed, info) {
			f(sk, parts)
		}
	}
}

func summarize(t *testing.T, sk sketch.Sketch, tbl *table.Table) sketch.Result {
	t.Helper()
	r, err := sk.Summarize(tbl)
	if err != nil {
		t.Fatalf("%s: Summarize(%s): %v", sk.Name(), tbl.ID(), err)
	}
	return r
}

func merge(t *testing.T, sk sketch.Sketch, a, b sketch.Result) sketch.Result {
	t.Helper()
	r, err := sk.Merge(a, b)
	if err != nil {
		t.Fatalf("%s: Merge: %v", sk.Name(), err)
	}
	return r
}

// TestAccumulatorMatchesSummarizeMerge pins the engine's fold for every
// instance: over a partition's chunks, the engine at one and at three
// workers returns the merge tree of the chunks' summaries, bit for bit —
// both where it calls Summarize and where (next-K) a worker folds each
// chunk into the Next of its last accumulator.
func TestAccumulatorMatchesSummarizeMerge(t *testing.T) {
	ctx := context.Background()
	forInstances(func(sk sketch.Sketch, parts []*table.Table) {
		for _, p := range parts {
			chunks := sketch.ChunkViews(p, 5)
			sums := make([]sketch.Result, len(chunks))
			for i, c := range chunks {
				sums[i] = summarize(t, sk, c)
			}
			want, err := sketch.MergeTree(sk, sums...)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 3} {
				cfg := engine.Config{Parallelism: par, AggregationWindow: -1}
				got, err := engine.NewLocal(p.ID(), chunks, cfg).Sketch(ctx, sk, nil)
				if err != nil {
					t.Fatalf("%s on %s: %v", sk.Name(), p.ID(), err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s, %d workers: the engine over %d chunks differs from the merge tree of their summaries\n got %+v\nwant %+v",
						sk.Name(), p.ID(), par, len(chunks), got, want)
				}
			}
		}
	})
}

// readsSchema reports the sketches whose summary of no rows still says
// something about the partition — range its column's kind, meta its
// schema and that it is one leaf — which Zero cannot know.
func readsSchema(sk sketch.Sketch) bool {
	switch sk.(type) {
	case *sketch.RangeSketch, *sketch.MetaSketch:
		return true
	}
	return false
}

// TestZeroIsLeafIdentity: Zero is an exact identity for every leaf
// summary — Merge(Zero(), Summarize(p)) is Summarize(p) bit for bit, for
// a partition and for the same partition with no member rows — and the
// summary of no rows is Zero itself unless the sketch reads the schema.
// The engine keeps a leaf's Summarize result as is, without a Merge with
// Zero, so this is what makes its answers, wire bytes and JSON the
// reference fold's.
func TestZeroIsLeafIdentity(t *testing.T) {
	forInstances(func(sk sketch.Sketch, parts []*table.Table) {
		for _, p := range parts {
			none := p.WithMembership(p.ID()+"/none", table.FilterMembership(p.Members(), func(int) bool { return false }))
			for _, tbl := range []*table.Table{p, none} {
				leaf := summarize(t, sk, tbl)
				if got := merge(t, sk, sk.Zero(), leaf); !reflect.DeepEqual(got, leaf) {
					t.Fatalf("%s on %s: Merge(Zero, Summarize) differs from Summarize\n got %+v\nwant %+v", sk.Name(), tbl.ID(), got, leaf)
				}
			}
			members, _ := sketch.MembersOf(sk)
			for i, m := range members {
				if readsSchema(m) {
					continue
				}
				got := summarize(t, m, none)
				if zero := m.Zero(); !reflect.DeepEqual(got, zero) {
					t.Fatalf("%s (member %d of %s) on %s: Summarize of no rows differs from Zero\n got %+v\nwant %+v",
						m.Name(), i, sk.Name(), p.ID(), got, zero)
				}
			}
		}
	})
}
