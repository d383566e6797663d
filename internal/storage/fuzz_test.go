package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/table"
)

// hvc2Bytes encodes a table through the HVC2 writer, producing
// well-formed seed input for the fuzzer.
func hvc2Bytes(t testing.TB, tbl *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := colstore.WriteHVC2To(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSeedTable builds a small table covering every column kind with
// and without missing values.
func fuzzSeedTable(t testing.TB, rows int) *table.Table {
	t.Helper()
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "t", Kind: table.KindDate},
	)
	b := table.NewBuilder(schema, rows)
	for i := 0; i < rows; i++ {
		row := table.Row{
			table.IntValue(int64(i*7 - 3)),
			table.DoubleValue(float64(i) / 3),
			table.StringValue([]string{"ant", "bee", "cat"}[i%3]),
			table.Value{Kind: table.KindDate, I: 1500000000000 + int64(i)*1000},
		}
		if i%5 == 0 {
			row[i%4] = table.MissingValue(row[i%4].Kind)
		}
		b.AppendRow(row)
	}
	return b.Freeze("fuzz-seed")
}

// FuzzHVC feeds arbitrary bytes to the HVC2 reader. The contract:
// colstore.ReadHVC2Bytes either returns a well-formed table or an error
// — never a panic, and never an allocation driven by a declared count
// the input size cannot back. Decoded tables must be safely traversable.
// Input without the HVC2 magic — the HVC1 seeds among it — must be
// refused with colstore.ErrNotHVC2.
func FuzzHVC(f *testing.F) {
	v1, err := os.ReadFile(legacyV1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte("HVC1"))
	f.Add([]byte("HVC1\x01\x00\x00\x00")) // truncated after numCols
	f.Add(v1)
	f.Add(v1[:len(v1)-(4+4*4)]) // v1 without its CRC footer
	f.Add([]byte("HVC2"))
	f.Add([]byte("HVC2\x01\x00\x00\x00")) // truncated after numCols
	f.Add(hvc2Bytes(f, fuzzSeedTable(f, 17)))
	f.Add(hvc2Bytes(f, fuzzSeedTable(f, 1)))
	// A filtered view exercises the membership-flattening writer.
	filtered := fuzzSeedTable(f, 29).Filter("fuzz-filtered", func(row int) bool { return row%2 == 0 })
	f.Add(hvc2Bytes(f, filtered))
	// Mixed-version confusion: v1 payload behind v2 magic and vice
	// versa — both must error cleanly, never panic.
	v2 := hvc2Bytes(f, fuzzSeedTable(f, 9))
	f.Add(append([]byte("HVC2"), v1[4:]...))
	f.Add(append([]byte("HVC1"), v2[4:]...))
	// Degenerate shapes: no columns, and a column missing in every row.
	f.Add(hvc2Bytes(f, table.NewBuilder(table.NewSchema(), 0).Freeze("empty")))
	f.Add(hvc2Bytes(f, fuzzSeedTable(f, 4).Filter("fuzz-none", func(int) bool { return false })))
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := colstore.ReadHVC2Bytes(data, "fuzz", nil)
		if !bytes.HasPrefix(data, []byte("HVC2")) && !errors.Is(err, colstore.ErrNotHVC2) {
			t.Fatalf("input without the HVC2 magic: err = %v, want ErrNotHVC2", err)
		}
		if err != nil {
			return // malformed input must surface as an error
		}
		// The decoded table must be internally consistent: walk every
		// cell of the first and last few rows.
		n := tbl.NumRows()
		for _, row := range []int{0, 1, n / 2, n - 2, n - 1} {
			if row < 0 || row >= n {
				continue
			}
			for c := 0; c < tbl.Schema().NumColumns(); c++ {
				_ = tbl.ColumnAt(c).Value(row)
			}
		}
	})
}

// TestHVCZeroColumnRoundTrip pins writer/reader symmetry for the
// degenerate zero-column table: HVC2 accepts it, as bytes and as a
// file through ReadHVC.
func TestHVCZeroColumnRoundTrip(t *testing.T) {
	empty := table.NewBuilder(table.NewSchema(), 0).Freeze("empty")
	got, err := colstore.ReadHVC2Bytes(hvc2Bytes(t, empty), "empty", nil)
	if err != nil {
		t.Fatalf("zero-column round-trip: %v", err)
	}
	if got.Schema().NumColumns() != 0 || got.NumRows() != 0 {
		t.Fatalf("round-trip gave %d cols, %d rows", got.Schema().NumColumns(), got.NumRows())
	}
	path := filepath.Join(t.TempDir(), "empty.hvc")
	if err := colstore.WriteHVC2(path, empty); err != nil {
		t.Fatal(err)
	}
	got, err = ReadHVC(path, "empty")
	if err != nil {
		t.Fatalf("zero-column file: %v", err)
	}
	if got.Schema().NumColumns() != 0 || got.NumRows() != 0 {
		t.Fatalf("file round-trip gave %d cols, %d rows", got.Schema().NumColumns(), got.NumRows())
	}
}
