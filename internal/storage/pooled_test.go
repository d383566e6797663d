package storage

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
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
// with the budget far below the data size.
func TestPooledLoaderMatchesEagerLoader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(string, *table.Table) error
	}{
		{"hvc2", colstore.WriteHVC2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeShards(t, 3, 2000, tc.write)
			cfg := engine.Config{Parallelism: 2, AggregationWindow: -1}
			micro := 300 // force file splitting: 2000 rows -> 7 micropartitions

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
				&sketch.HistogramSketch{Col: "price", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1000, 10), Rate: 0.5, Seed: 7},
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
	dir := writeShards(t, 2, 500, colstore.WriteHVC2)
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

// TestPooledSourceMissingFile: a source is a snapshot of its files.
// Unlinking a backing file after the source opened it changes nothing —
// the mapping keeps serving the same bytes, including columns first
// touched after the unlink — while opening a vanished path fails with
// fs.ErrNotExist.
func TestPooledSourceMissingFile(t *testing.T) {
	dir := writeShards(t, 1, 300, colstore.WriteHVC2)
	path := filepath.Join(dir, "part-00.hvc")
	want, err := ReadHVC(path, "p")
	if err != nil {
		t.Fatal(err)
	}
	pool := colstore.NewPool(0)
	src, err := NewPooledSource(pool, []PooledFileSpec{{Path: path, ID: "p"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	got, release, err := src.Acquire(0, nil)
	if err != nil {
		t.Fatalf("acquire after unlink: %v", err)
	}
	tablesEqual(t, want, got)
	release()
	if _, err := NewPooledSource(pool, []PooledFileSpec{{Path: path, ID: "p"}}, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("opening a vanished file: %v, want fs.ErrNotExist", err)
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
