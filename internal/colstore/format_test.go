package colstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/table"
)

// testTable builds a table covering every stored kind with missing
// values in every column.
func testTable(tb testing.TB, rows int) *table.Table {
	tb.Helper()
	schema := table.NewSchema(
		table.ColumnDesc{Name: "i", Kind: table.KindInt},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "t", Kind: table.KindDate},
	)
	b := table.NewBuilder(schema, rows)
	words := []string{"ant", "bee", "cat", "dog", "emu"}
	for i := 0; i < rows; i++ {
		row := table.Row{
			table.IntValue(int64(i*13 - 7)),
			table.DoubleValue(float64(i) * 0.75),
			table.StringValue(words[i%len(words)]),
			table.Value{Kind: table.KindDate, I: 1500000000000 + int64(i)*60000},
		}
		if i%7 == 3 {
			row[i%4] = table.MissingValue(row[i%4].Kind)
		}
		b.AppendRow(row)
	}
	return b.Freeze("fmt-test")
}

// assertSameRows checks got holds exactly the member rows of want, in
// member order, value for value.
func assertSameRows(t *testing.T, want, got *table.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: got %d, want %d", got.NumRows(), want.NumRows())
	}
	if !want.Schema().Equal(got.Schema()) {
		t.Fatalf("schema: got %v, want %v", got.Schema(), want.Schema())
	}
	wantRows := want.Rows()
	gotRows := got.Rows()
	for i := range wantRows {
		for c := range wantRows[i] {
			if !reflect.DeepEqual(wantRows[i][c], gotRows[i][c]) {
				t.Fatalf("row %d col %d: got %+v, want %+v", i, c, gotRows[i][c], wantRows[i][c])
			}
		}
	}
}

func writeTemp(t *testing.T, tbl *table.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.hvc")
	if err := WriteHVC2(path, tbl); err != nil {
		t.Fatalf("WriteHVC2: %v", err)
	}
	return path
}

func TestHVC2RoundTripMapped(t *testing.T) {
	src := testTable(t, 301)
	f, err := OpenFile(writeTemp(t, src))
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if f.Rows() != src.NumRows() {
		t.Fatalf("rows: got %d, want %d", f.Rows(), src.NumRows())
	}
	cols := make([]table.Column, f.Schema().NumColumns())
	for i := range cols {
		col, size, evict, err := f.Column(i)
		if err != nil {
			t.Fatalf("column %d: %v", i, err)
		}
		if size <= 0 {
			t.Fatalf("column %d: size %d", i, size)
		}
		cols[i] = col
		// Page release must be safe while the column is referenced.
		evict()
	}
	got := table.New("rt", f.Schema(), cols, table.FullMembership(f.Rows()))
	assertSameRows(t, src, got)
}

func TestHVC2RoundTripBytes(t *testing.T) {
	src := testTable(t, 97)
	var buf bytes.Buffer
	if err := WriteHVC2To(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHVC2Bytes(buf.Bytes(), "rt", nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, src, got)

	// Column subset, out of schema order.
	sub, err := ReadHVC2Bytes(buf.Bytes(), "rt", []string{"s", "i"})
	if err != nil {
		t.Fatal(err)
	}
	s, i := src.Schema().ColumnIndex("s"), src.Schema().ColumnIndex("i")
	want := table.New("rt", table.NewSchema(src.Schema().Columns[s], src.Schema().Columns[i]),
		[]table.Column{src.ColumnAt(s), src.ColumnAt(i)}, src.Members())
	assertSameRows(t, want, sub)
}

// TestHVC2FlattensFilteredViews pins the dense-file contract: a
// filtered view writes only member rows, and string dictionaries shrink
// to the values that actually occur (still sorted).
func TestHVC2FlattensFilteredViews(t *testing.T) {
	src := testTable(t, 200).Filter("f", func(row int) bool { return row%3 == 0 })
	var buf bytes.Buffer
	if err := WriteHVC2To(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHVC2Bytes(buf.Bytes(), "f", nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, src, got)
	sc := got.MustColumn("s").(*table.StringColumn)
	for i := 1; i < sc.DictSize(); i++ {
		if sc.Dict()[i-1] >= sc.Dict()[i] {
			t.Fatalf("reloaded dictionary not sorted at %d: %q >= %q", i, sc.Dict()[i-1], sc.Dict()[i])
		}
	}
}

func TestHVC2ComputedAndAllMissing(t *testing.T) {
	n := 50
	comp := table.NewComputedColumn(table.KindString, n, func(i int) table.Value {
		if i%5 == 0 {
			return table.MissingValue(table.KindString)
		}
		return table.StringValue([]string{"zz", "aa", "mm"}[i%3])
	})
	allMissing := table.NewComputedColumn(table.KindString, n, func(i int) table.Value {
		return table.MissingValue(table.KindString)
	})
	schema := table.NewSchema(
		table.ColumnDesc{Name: "c", Kind: table.KindString},
		table.ColumnDesc{Name: "m", Kind: table.KindString},
	)
	src := table.New("comp", schema, []table.Column{comp, allMissing}, table.FullMembership(n))
	var buf bytes.Buffer
	if err := WriteHVC2To(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHVC2Bytes(buf.Bytes(), "comp", nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, src, got)

	// A stored dictionary column missing in every row has an empty
	// dictionary, so its rows' codes index nothing.
	b := table.NewBuilder(table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString}), n)
	for i := 0; i < n; i++ {
		b.AppendRow(table.Row{table.MissingValue(table.KindString)})
	}
	stored := b.Freeze("stored")
	buf.Reset()
	if err := WriteHVC2To(&buf, stored); err != nil {
		t.Fatal(err)
	}
	got, err = ReadHVC2Bytes(buf.Bytes(), "stored", nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, stored, got)
}

func TestHVC2EmptyTables(t *testing.T) {
	empty := table.NewBuilder(table.NewSchema(), 0).Freeze("empty")
	var buf bytes.Buffer
	if err := WriteHVC2To(&buf, empty); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHVC2Bytes(buf.Bytes(), "empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().NumColumns() != 0 || got.NumRows() != 0 {
		t.Fatalf("got %d cols, %d rows", got.Schema().NumColumns(), got.NumRows())
	}

	// Zero rows, nonzero columns.
	zero := testTable(t, 10).Filter("z", func(int) bool { return false })
	buf.Reset()
	if err := WriteHVC2To(&buf, zero); err != nil {
		t.Fatal(err)
	}
	got, err = ReadHVC2Bytes(buf.Bytes(), "z", nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, zero, got)
}

// TestHVC2CRCDetectsCorruption flips one payload byte in every block in
// turn and demands the reader refuse that column.
func TestHVC2CRCDetectsCorruption(t *testing.T) {
	src := testTable(t, 64)
	var buf bytes.Buffer
	if err := WriteHVC2To(&buf, src); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	h, err := parseV2(clean)
	if err != nil {
		t.Fatal(err)
	}
	for ci, d := range h.dir {
		data := append([]byte(nil), clean...)
		data[d.off+blockHeader+3] ^= 0x40 // inside the payload
		name := h.schema.Columns[ci].Name
		if _, err := ReadHVC2Bytes(data, "corrupt", []string{name}); err == nil {
			t.Errorf("column %q: corrupted payload decoded without error", name)
		}
		// Other columns remain readable.
		other := h.schema.Columns[(ci+1)%len(h.dir)].Name
		if _, err := ReadHVC2Bytes(data, "ok", []string{other}); err != nil {
			t.Errorf("column %q: unrelated corruption rejected it: %v", other, err)
		}
	}
}

// TestHVC2TruncationDetected cuts the file at various points.
func TestHVC2TruncationDetected(t *testing.T) {
	src := testTable(t, 128)
	var buf bytes.Buffer
	if err := WriteHVC2To(&buf, src); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for _, cut := range []int{0, 3, 15, 40, len(clean) / 2, len(clean) - 5} {
		if _, err := ReadHVC2Bytes(clean[:cut], "trunc", nil); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}

// TestMappedColumnsAreConcreteTypes pins the kernel contract: mapped
// columns must be the concrete table column types the vectorized
// kernels type-switch on.
func TestMappedColumnsAreConcreteTypes(t *testing.T) {
	f, err := OpenFile(writeTemp(t, testTable(t, 80)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, want := range []string{"*table.IntColumn", "*table.DoubleColumn", "*table.StringColumn", "*table.IntColumn"} {
		col, _, _, err := f.Column(i)
		if err != nil {
			t.Fatal(err)
		}
		if got := reflect.TypeOf(col).String(); got != want {
			t.Errorf("column %d: type %s, want %s", i, got, want)
		}
	}
}

// TestMappedScanZeroAlloc pins the acceptance criterion: scanning
// fixed-width mapped columns through the typed bulk accessors performs
// zero allocations per pass.
func TestMappedScanZeroAlloc(t *testing.T) {
	f, err := OpenFile(writeTemp(t, testTable(t, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ic, _, _, err := f.Column(0)
	if err != nil {
		t.Fatal(err)
	}
	dc, _, _, err := f.Column(1)
	if err != nil {
		t.Fatal(err)
	}
	sc, _, _, err := f.Column(2)
	if err != nil {
		t.Fatal(err)
	}
	ints := ic.(*table.IntColumn)
	doubles := dc.(*table.DoubleColumn)
	codes := sc.(*table.StringColumn)
	var sinkI int64
	var sinkD float64
	allocs := testing.AllocsPerRun(50, func() {
		for _, v := range ints.Ints() {
			sinkI += v
		}
		m := ints.MissingMask()
		if m != nil {
			sinkI += int64(m.Count())
		}
		for _, v := range doubles.Doubles() {
			sinkD += v
		}
		for _, c := range codes.Codes() {
			sinkI += int64(c)
		}
	})
	if allocs != 0 {
		t.Fatalf("mapped fixed-width scan allocated %.1f times per pass, want 0", allocs)
	}
	_ = sinkD
}

// TestHVC2ZeroColumnRowBound pins the header guard for the degenerate
// zero-column case: a crafted 16-byte image declaring 0 columns and
// 2^62 rows must be rejected (a phantom row count would drive
// 2^62-iteration loops in whole-table consumers), while the writer's
// real zero-column output keeps round-tripping.
func TestHVC2ZeroColumnRowBound(t *testing.T) {
	bad := make([]byte, 16)
	copy(bad, magicV2)
	bad[8] = 0 // numCols = 0
	for i, b := range []byte{0, 0, 0, 0, 0, 0, 0, 0x40} {
		bad[8+i] = b // numRows = 1<<62
	}
	if _, err := ReadHVC2Bytes(bad, "bad", nil); err == nil {
		t.Fatal("zero-column header with 2^62 rows decoded without error")
	}
}

// TestHVC2NotV2 pins the sentinel every non-HVC2 input fails with: a
// file or image with another magic (HVC1 included) is ErrNotHVC2, and
// file errors name the path.
func TestHVC2NotV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.hvc")
	if err := os.WriteFile(path, []byte("HVC1junkjunkjunkjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); !errors.Is(err, ErrNotHVC2) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenFile of a v1 file: %v, want ErrNotHVC2 naming %s", err, path)
	}
	if _, err := ReadHVC2File(path, "v1", nil); !errors.Is(err, ErrNotHVC2) {
		t.Fatalf("ReadHVC2File of a v1 file: %v, want ErrNotHVC2", err)
	}
	if _, err := ReadHVC2Bytes([]byte("HVC1xxxxxxxxxxxxxxxx"), "v1", nil); !errors.Is(err, ErrNotHVC2) {
		t.Fatalf("ReadHVC2Bytes of v1 magic: %v, want ErrNotHVC2", err)
	}
}
