package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/expr/exprtest"
	"repro/internal/sketch"
	"repro/internal/table"
)

// rowPredicate is the row-at-a-time form of a filter expression: the
// reference evaluator with missing treated as false.
func rowPredicate(t *testing.T, src string, tbl *table.Table) func(row int) bool {
	t.Helper()
	pred, err := exprtest.Predicate(src, tbl)
	if err != nil {
		t.Fatalf("Predicate(%q): %v", src, err)
	}
	return pred
}

// TestFilterOpsMatchRowFilter pins the two selection map ops to the
// reference they replaced: Table.Filter over a per-row predicate. The
// derived partition must have the same rows in the same membership
// representation, for every parent shape GenPartitions draws.
func TestFilterOpsMatchRowFilter(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		parts, info := table.GenPartitions(fmt.Sprintf("fo%d", seed), seed, 3000, 4)
		midI := float64(info.IntLo + (info.IntHi-info.IntLo)/2)
		midD := (info.DoubleLo + info.DoubleHi) / 2
		for _, p := range parts {
			for _, src := range []string{
				fmt.Sprintf("gi > %v", midI),
				fmt.Sprintf("gd <= %v && gi != %v", midD, midI),
				"gd > -8",
				fmt.Sprintf("gs >= %q || gc > 20", info.DictValues[len(info.DictValues)/2]),
				"gd > 1e300", // nothing survives
			} {
				got, err := FilterOp{Predicate: src}.Apply(p, "out")
				if err != nil {
					t.Fatal(err)
				}
				want := p.Filter("out", rowPredicate(t, src, p))
				if !reflect.DeepEqual(got.Members(), want.Members()) {
					t.Fatalf("%s: filter(%s): got %T of %d rows, want %T of %d", p.ID(), src,
						got.Members(), got.NumRows(), want.Members(), want.NumRows())
				}
			}
			for _, op := range []FilterRangeOp{
				{Col: "gi", Min: float64(info.IntLo), Max: midI},
				{Col: "gi", Min: midI + 0.5, Max: math.Inf(1)},
				{Col: "gd", Min: midD, Max: info.DoubleHi},
				{Col: "gt", Min: float64(info.DateLo), Max: float64(info.DateLo+info.DateHi) / 2},
				{Col: "gc", Min: 10, Max: 30}, // a derived double column
				{Col: "gd", Min: midD, Max: midD - 1},
				{Col: "gd", Min: math.NaN(), Max: midD},
				{Col: "gd", Min: midD, Max: math.NaN()},
			} {
				got, err := op.Apply(p, "out")
				if err != nil {
					t.Fatal(err)
				}
				col := p.MustColumn(op.Col)
				want := p.Filter("out", func(row int) bool {
					if col.Value(row).Missing {
						return false
					}
					v := col.Value(row).Double()
					return v >= op.Min && v <= op.Max
				})
				if !reflect.DeepEqual(got.Members(), want.Members()) {
					t.Fatalf("%s: %+v: got %T of %d rows, want %T of %d", p.ID(), op,
						got.Members(), got.NumRows(), want.Members(), want.NumRows())
				}
			}
		}
	}
}

// TestNextKParallelismInvariant runs the table view's sketch through
// the production leaf pool — dynamic partition assignment, bounds
// carried from partition to partition through Accumulator.Next — at
// several worker counts: the chained scan must return exactly the
// Summarize+Merge answer of cold scans whichever partitions each worker
// happens to fold.
func TestNextKParallelismInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		parts, info := table.GenPartitions(fmt.Sprintf("nkp%d", seed), seed, 500, 32)
		mid := table.IntValue(info.IntLo + (info.IntHi-info.IntLo)/2)
		for _, sk := range []*sketch.NextKSketch{
			{Order: table.Asc("gi"), Extra: []string{"gs"}, K: 20},
			{Order: table.Desc("gd").Then("gs", true), K: 20},
			{Order: table.Asc("gs"), Extra: []string{"gd"}, K: 20},
			{Order: table.Asc("gi").Then("gs", false).Then("gd", true).Then("gt", true).Then("gc", false), K: 30},
			{Order: table.Desc("gi"), Extra: []string{"gt"}, K: 20, From: table.Row{mid}},
		} {
			var sums []sketch.Result
			for _, p := range parts {
				r, err := sk.Summarize(p)
				if err != nil {
					t.Fatal(err)
				}
				sums = append(sums, r)
			}
			want, err := sketch.MergeAll(sk, sums...)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 3} {
				ds := NewLocal("nkp", parts, Config{Parallelism: par, AggregationWindow: -1})
				got, err := ds.Sketch(context.Background(), sk, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s parallelism %d: engine result differs from reference\n got %+v\nwant %+v",
						seed, sk.Name(), par, got, want)
				}
			}
		}
	}
}
