package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/table"
)

// The cold/warm scan benchmark of the column store: the same two
// fixed-width columns (int64 + float64, no missing) of an HVC2 file,
// mapped, block CRC-validated and reinterpreted in place. "Cold"
// includes that materialization each pass; "warm" scans already
// materialized columns. (BENCH_colstore.json holds the historical A/B
// against the HVC1 heap decoder, which no longer exists.)

var (
	colBenchDir   string
	colBenchFiles = map[int]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if colBenchDir != "" {
		os.RemoveAll(colBenchDir)
	}
	os.Exit(code)
}

// colBenchTable builds the two-column bench table.
func colBenchTable(n int) *table.Table {
	ints := make([]int64, n)
	doubles := make([]float64, n)
	for i := range ints {
		ints[i] = int64(i*2654435761) % 1000
		doubles[i] = float64(i%997) * 0.5
	}
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
	)
	return table.New("bench", schema, []table.Column{
		table.NewIntColumn(table.KindInt, ints, nil),
		table.NewDoubleColumn(doubles, nil),
	}, table.FullMembership(n))
}

// colBenchFile writes (once per process) the bench table at n rows.
func colBenchFile(b *testing.B, n int) string {
	b.Helper()
	if path, ok := colBenchFiles[n]; ok {
		return path
	}
	if colBenchDir == "" {
		dir, err := os.MkdirTemp("", "colstore-bench")
		if err != nil {
			b.Fatal(err)
		}
		colBenchDir = dir
	}
	path := filepath.Join(colBenchDir, fmt.Sprintf("bench-%d.hvc", n))
	if err := colstore.WriteHVC2(path, colBenchTable(n)); err != nil {
		b.Fatal(err)
	}
	colBenchFiles[n] = path
	return path
}

// scanBenchCols burns through both columns with the typed bulk
// accessors — the access pattern of the vectorized kernels.
func scanBenchCols(ic, dc table.Column) (int64, float64) {
	var si int64
	var sd float64
	for _, v := range ic.(*table.IntColumn).Ints() {
		si += v
	}
	for _, v := range dc.(*table.DoubleColumn).Doubles() {
		sd += v
	}
	return si, sd
}

var colBenchSizes = []int{1_000_000, 10_000_000}

func BenchmarkColstoreScanV2MappedCold(b *testing.B) {
	for _, n := range colBenchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			path := colBenchFile(b, n)
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := colstore.OpenFile(path)
				if err != nil {
					b.Fatal(err)
				}
				ic, _, _, err := f.Column(0)
				if err != nil {
					b.Fatal(err)
				}
				dc, _, _, err := f.Column(1)
				if err != nil {
					b.Fatal(err)
				}
				scanBenchCols(ic, dc)
				f.Close()
			}
		})
	}
}

func BenchmarkColstoreScanV2MappedWarm(b *testing.B) {
	for _, n := range colBenchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			f, err := colstore.OpenFile(colBenchFile(b, n))
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			ic, _, _, err := f.Column(0)
			if err != nil {
				b.Fatal(err)
			}
			dc, _, _, err := f.Column(1)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(16 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanBenchCols(ic, dc)
			}
		})
	}
}
