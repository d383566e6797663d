//go:build !race

// The race detector's sync.Pool drops a share of the buffers put back
// on purpose, so these allocation counts hold only without it.

package sketch

import (
	"runtime"
	"testing"

	"repro/internal/table"
)

// TestPartitionScanBatchesArePooled pins the allocations of one
// partition's histogram scan: the 16 KiB row and slot batches the scan
// drivers use come from a pool, so a sampled scan and a scan over a
// bitmap membership allocate none of them.
func TestPartitionScanBatchesArePooled(t *testing.T) {
	base := genTable("pooled", 50000, 3)
	bits := table.NewBitset(base.NumRows())
	for i := 0; i < base.NumRows(); i += 3 {
		bits.Set(i)
	}
	bitmap := base.WithMembership("pooled-bitmap", table.NewBitmapMembership(bits))
	spec := NumericBuckets(table.KindDouble, 0, 100, 40)
	// want is each scan's count with pooled batches on go1.24: the
	// summary and its counts, the bucket kernel, the tallies, and the
	// closures and captured counters of the scan drivers. A batch
	// allocated per scan adds one.
	cases := []struct {
		name string
		sk   *HistogramSketch
		tbl  *table.Table
		want float64
	}{
		{"sampled", &HistogramSketch{Col: "x", Buckets: spec, Rate: 0.1, Seed: 7}, base, 11},
		{"bitmap", &HistogramSketch{Col: "x", Buckets: spec}, bitmap, 6},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.sk.Summarize(c.tbl); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.want {
			t.Errorf("%s: %.0f allocations per partition scan, want at most %.0f: a scan batch is not pooled", c.name, allocs, c.want)
		}
	}
}

// TestHist2DFoldRecyclesMatrices pins the in-place fold's allocation: a
// 2-D histogram folded over P partitions through TreeFold allocates slot
// matrices for the summaries alive at once, not one per partition and
// one per merge.
func TestHist2DFoldRecyclesMatrices(t *testing.T) {
	parts := splitTable(genTable("fold", 40000, 5), 16)
	sk := &Histogram2DSketch{XCol: "x", YCol: "id",
		X: NumericBuckets(table.KindDouble, 0, 100, 100), Y: NumericBuckets(table.KindInt, 0, 40000, 60)}
	matrix := uint64((sk.X.NumBuckets() + 2) * (sk.Y.NumBuckets() + 2) * 8)
	fold := func() {
		f := NewTreeFold(sk, len(parts))
		for i, p := range parts {
			r, err := sk.Summarize(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Put(i, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One P for the measured window, as testing.AllocsPerRun pins it: a
	// sync.Pool's per-P slot is missed by a goroutine that changes P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fold() // fill the pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fold()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4*matrix {
		t.Errorf("a fold of %d partitions allocates %d B, %.1f slot matrices of %d B; want at most 4",
			len(parts), per, float64(per)/float64(matrix), matrix)
	}
}
