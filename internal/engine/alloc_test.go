package engine

import (
	"testing"

	"repro/internal/table"
)

// TestFilterCallAllocs pins a filter with a builtin call to its vector
// form: the string column is read as dict[codes[row]] and contains runs
// over the batch, so the scan allocates its compiled nodes and the
// result membership, where a boxed value per row would be ≈100,000.
// testing.AllocsPerRun holds one P for the count.
func TestFilterCallAllocs(t *testing.T) {
	parts, _ := table.GenPartitions("alloc", 1, 100000, 1)
	p := parts[0].WithMembership("alloc-100k", table.NewRangeMembership(0, 100000, parts[0].Members().Max()))
	op := FilterOp{Predicate: `contains(gs, "1")`}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := op.Apply(p, "out"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("FilterOp{%q}.Apply over %d rows: %.0f allocations, want fewer than 1,000", op.Predicate, p.NumRows(), allocs)
	}
	t.Logf("%.0f allocations over %d rows", allocs, p.NumRows())
}
