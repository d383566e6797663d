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
// the storage level: the loader (lazy, mapped, budgeted) and an eager
// dataset over the same files decoded onto the heap and split by
// SplitRows produce bit-identical sketch results — same partition IDs,
// same split geometry, same values — with the budget far below the
// data size.
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
			pooled, err := NewLoader(cfg, micro, pool)("ds", "dir:"+dir)
			if err != nil {
				t.Fatal(err)
			}
			var heapParts []*table.Table
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("part-%02d.hvc", i)
				heapParts = append(heapParts, SplitRows(readHeap(t, filepath.Join(dir, name), "ds/"+name), micro)...)
			}
			eager := engine.NewLocal("ds", heapParts, cfg)
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

// TestLoaderSourceForms holds every source form to the eager
// reference: each file decoded onto the heap (.hvc by ReadHVC2Bytes,
// CSV by ReadCSV) under its ID, then split by SplitRows. The loader's
// partitions must match it in ID, row range and values, and every .hvc
// column must have come through the pool — one miss per file and
// column, split partitions sharing their file's columns.
func TestLoaderSourceForms(t *testing.T) {
	dir := writeShards(t, 2, 500, colstore.WriteHVC2)
	mixed := t.TempDir()
	if err := WriteCSV(filepath.Join(mixed, "a.csv"), sampleTable(t, "a", 300)); err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteHVC2(filepath.Join(mixed, "b.hvc"), sampleTable(t, "b", 400)); err != nil {
		t.Fatal(err)
	}
	// A temporary file, as WriteHVC2 leaves while it writes, is no data
	// file.
	if err := os.WriteFile(filepath.Join(mixed, "c.hvc.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	shard0, shard1 := filepath.Join(dir, "part-00.hvc"), filepath.Join(dir, "part-01.hvc")
	type file struct{ path, id string }
	for _, tc := range []struct {
		name, source string
		micro        int
		files        []file
	}{
		{"file", "file:" + shard0, 0, []file{{shard0, "ds"}}},
		{"bare file", shard0, 0, []file{{shard0, "ds"}}},
		{"dir", "dir:" + dir, 0, []file{{shard0, "ds/part-00.hvc"}, {shard1, "ds/part-01.hvc"}}},
		{"bare dir", dir, 0, []file{{shard0, "ds/part-00.hvc"}, {shard1, "ds/part-01.hvc"}}},
		{"micro", "dir:" + dir, 150, []file{{shard0, "ds/part-00.hvc"}, {shard1, "ds/part-01.hvc"}}},
		{"mixed", "dir:" + mixed, 0, []file{{filepath.Join(mixed, "a.csv"), "ds/a.csv"}, {filepath.Join(mixed, "b.hvc"), "ds/b.hvc"}}},
		{"mixed micro", "dir:" + mixed, 120, []file{{filepath.Join(mixed, "a.csv"), "ds/a.csv"}, {filepath.Join(mixed, "b.hvc"), "ds/b.hvc"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []*table.Table
			hvcFiles := 0
			for _, f := range tc.files {
				var whole *table.Table
				if filepath.Ext(f.path) == ".hvc" {
					whole = readHeap(t, f.path, f.id)
					hvcFiles++
				} else {
					var err error
					if whole, err = ReadCSV(f.path, f.id, nil); err != nil {
						t.Fatal(err)
					}
				}
				want = append(want, SplitRows(whole, tc.micro)...)
			}

			pool := colstore.NewPool(0)
			src, err := openSource(pool, &fileCache{}, tc.source, "ds", tc.micro)
			if err != nil {
				t.Fatal(err)
			}
			if len(src.Leaves()) != len(want) {
				t.Fatalf("%d partitions, want %d", len(src.Leaves()), len(want))
			}
			for i, w := range want {
				got, release, err := src.Acquire(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.ID() != w.ID() || src.Leaves()[i].ID != w.ID() {
					t.Errorf("partition %d: ID %q (leaf %q), want %q", i, got.ID(), src.Leaves()[i].ID, w.ID())
				}
				if !reflect.DeepEqual(got.Members(), w.Members()) {
					t.Errorf("partition %d: rows %v, want %v", i, got.Members(), w.Members())
				}
				tablesEqual(t, w, got)
				release()
			}
			cols := sampleTable(t, "x", 0).Schema().NumColumns()
			if s := pool.Stats(); s.Misses != int64(hvcFiles*cols) || s.Pinned != 0 {
				t.Errorf("pool %v: want %d misses (%d .hvc files × %d columns) and no pins", s, hvcFiles*cols, hvcFiles, cols)
			}
			ds, err := NewLoader(engine.Config{AggregationWindow: -1}, tc.micro, nil)("ds", tc.source)
			if err != nil {
				t.Fatal(err)
			}
			if ds.NumLeaves() != len(want) {
				t.Errorf("loader: %d partitions, want %d", ds.NumLeaves(), len(want))
			}
		})
	}
}

// TestRewriteKeepsMappedBytes: WriteHVC2 replaces a file by rename, so
// a source that has the old file mapped keeps serving its old values
// (a truncated mapping would fault), and a fresh loader reads the new
// file.
func TestRewriteKeepsMappedBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part.hvc")
	old, next := sampleTable(t, "old", 400), sampleTable(t, "new", 100)
	if err := colstore.WriteHVC2(path, old); err != nil {
		t.Fatal(err)
	}
	pool := colstore.NewPool(0)
	cfg := engine.Config{AggregationWindow: -1}
	loader := NewLoader(cfg, 0, pool)
	ds, err := loader("ds", path)
	if err != nil {
		t.Fatal(err)
	}
	rng := &sketch.RangeSketch{Col: "id"}
	before, err := ds.Sketch(context.Background(), rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteHVC2(path, next); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	pool.EvictAll() // the rescan maps the columns in again
	after, err := ds.Sketch(context.Background(), &sketch.MomentsSketch{Col: "id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.(*sketch.Moments).Count; n != 400 {
		t.Errorf("open source after rewrite: %d rows, want the old 400", n)
	}
	again, err := ds.Sketch(context.Background(), rng, nil)
	if err != nil || !reflect.DeepEqual(before, again) {
		t.Errorf("open source after rewrite: %+v, %v; want %+v", again, err, before)
	}
	fresh, err := NewLoader(cfg, 0, nil)("ds", path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Sketch(context.Background(), &sketch.MomentsSketch{Col: "id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := got.(*sketch.Moments).Count; n != 100 {
		t.Errorf("fresh loader: %d rows, want the new 100", n)
	}
}

// TestPooledSourceColumnLaziness checks a sketch over one column
// materializes only that column.
func TestPooledSourceColumnLaziness(t *testing.T) {
	dir := writeShards(t, 2, 500, colstore.WriteHVC2)
	pool := colstore.NewPool(0)
	loader := NewLoader(engine.Config{AggregationWindow: -1}, 0, pool)
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
	want := readHeap(t, path, "p")
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

// TestPoolBudget: the flag value wins over the environment, and an
// empty flag falls back to it.
func TestPoolBudget(t *testing.T) {
	t.Setenv(PoolBudgetEnv, "64K")
	for _, tc := range []struct {
		flag string
		want int64
		err  bool
	}{{"", 64 << 10, false}, {"2M", 2 << 20, false}, {"0", 0, false}, {"x", 0, true}} {
		got, err := PoolBudget(tc.flag)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("PoolBudget(%q) = %d, %v; want %d, err=%v", tc.flag, got, err, tc.want, tc.err)
		}
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
