package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

// writeShards materializes n shards of the sample table in the given
// format writer and returns the directory.
func writeShards(t *testing.T, n, rows int, write func(string, *table.Table) error) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		tbl := sampleTable(t, fmt.Sprintf("shard%d", i), rows)
		if err := write(filepath.Join(dir, fmt.Sprintf("part-%02d.hvc", i)), tbl); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPooledLoaderMatchesEagerLoader pins the acceptance criterion at
// the storage level: the pooled (lazy, mapped, budgeted) loader and
// the eager heap loader produce bit-identical sketch results over the
// same files — same partition IDs, same split geometry, same values —
// for both format versions, with the budget far below the data size.
func TestPooledLoaderMatchesEagerLoader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(string, *table.Table) error
	}{
		{"hvc2", WriteHVC2},
		{"hvc1", WriteHVC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeShards(t, 3, 2000, tc.write)
			cfg := engine.Config{Parallelism: 2, AggregationWindow: -1, ChunkRows: 700}
			micro := 900 // force file splitting: 2000 rows -> 3 micropartitions

			pool := colstore.NewPool(4096) // tiny: constant eviction churn
			pooledLoad := NewPooledLoader(cfg, micro, pool)
			eagerLoad := NewLoader(cfg, micro)

			pooled, err := pooledLoad("ds", "dir:"+dir)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := eagerLoad("ds", "dir:"+dir)
			if err != nil {
				t.Fatal(err)
			}
			if pooled.NumLeaves() != eager.NumLeaves() {
				t.Fatalf("leaves: pooled %d, eager %d", pooled.NumLeaves(), eager.NumLeaves())
			}

			sketches := []sketch.Sketch{
				&sketch.HistogramSketch{Col: "price", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1000, 10)},
				&sketch.SampledHistogramSketch{Col: "price", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1000, 10), Rate: 0.5, Seed: 7},
				&sketch.MisraGriesSketch{Col: "city", K: 5},
				&sketch.RangeSketch{Col: "id"},
				&sketch.MetaSketch{},
			}
			for _, sk := range sketches {
				want, err := eager.Sketch(context.Background(), sk, nil)
				if err != nil {
					t.Fatalf("%s eager: %v", sk.Name(), err)
				}
				got, err := pooled.Sketch(context.Background(), sk, nil)
				if err != nil {
					t.Fatalf("%s pooled: %v", sk.Name(), err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: pooled %+v != eager %+v", sk.Name(), got, want)
				}
			}
			s := pool.Stats()
			if s.Misses == 0 {
				t.Fatalf("pool never loaded: %v", s)
			}
			if s.Evictions == 0 {
				t.Fatalf("no eviction churn under a %d-byte budget: %v", s.Budget, s)
			}
			if s.Pinned != 0 {
				t.Fatalf("pins leaked: %v", s)
			}
		})
	}
}

// TestPooledSourceColumnLaziness checks a sketch over one column
// materializes only that column.
func TestPooledSourceColumnLaziness(t *testing.T) {
	dir := writeShards(t, 2, 500, WriteHVC2)
	pool := colstore.NewPool(0)
	loader := NewPooledLoader(engine.Config{AggregationWindow: -1}, 0, pool)
	ds, err := loader("ds", "dir:"+dir)
	if err != nil {
		t.Fatal(err)
	}
	sk := &sketch.HistogramSketch{Col: "price", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1000, 8)}
	if _, err := ds.Sketch(context.Background(), sk, nil); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Columns != 2 { // one "price" column per file
		t.Fatalf("resident columns %d, want 2 (only the scanned column per file): %v", s.Columns, s)
	}
}

// TestPooledSourceMissingFile checks that a vanished backing file
// surfaces as ErrMissingDataset (the root's replay signal).
func TestPooledSourceMissingFile(t *testing.T) {
	dir := writeShards(t, 1, 300, WriteHVC2)
	pool := colstore.NewPool(0)
	path := filepath.Join(dir, "part-00.hvc")
	src, err := NewPooledSource(pool, []PooledFileSpec{{Path: path, ID: "p"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// v1 files decode from the path on demand; v2 keeps the fd open, so
	// simulate loss for v1 semantics with a fresh v1 source.
	v1dir := writeShards(t, 1, 300, WriteHVC)
	v1path := filepath.Join(v1dir, "part-00.hvc")
	v1src, err := NewPooledSource(pool, []PooledFileSpec{{Path: v1path, ID: "p1"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer v1src.Close()
	if err := os.Remove(v1path); err != nil {
		t.Fatal(err)
	}
	_, _, err = v1src.Acquire(0, []string{"id"})
	if !errors.Is(err, engine.ErrMissingDataset) {
		t.Fatalf("got %v, want ErrMissingDataset", err)
	}
}

// TestParseByteSize covers the budget env format.
func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false}, {"4096", 4096, false}, {"64K", 64 << 10, false},
		{"256M", 256 << 20, false}, {"2G", 2 << 30, false}, {"x", 0, true},
		{"256Mi", 256 << 20, false}, {"256MiB", 256 << 20, false},
		{"64KB", 64 << 10, false}, {"2g", 2 << 30, false}, {"12Q", 0, true},
		// Overflow: n*mult wrapping used to yield a silent negative
		// budget. 8589934591G is the largest G value that still fits.
		{"9999999999G", 0, true}, {"-9999999999G", 0, true},
		{"8589934591G", 8589934591 << 30, false},
		{"9223372036854775807", math.MaxInt64, false},
	} {
		got, err := ParseByteSize(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}
