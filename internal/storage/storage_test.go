package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/table"
)

func sampleTable(t *testing.T, id string, n int) *table.Table {
	t.Helper()
	schema := table.NewSchema(
		table.ColumnDesc{Name: "id", Kind: table.KindInt},
		table.ColumnDesc{Name: "price", Kind: table.KindDouble},
		table.ColumnDesc{Name: "city", Kind: table.KindString},
		table.ColumnDesc{Name: "when", Kind: table.KindDate},
	)
	b := table.NewBuilder(schema, n)
	base := time.Date(2019, 7, 10, 12, 0, 0, 0, time.UTC)
	cities := []string{"oslo", "lima", "kyiv", "pune"}
	for i := 0; i < n; i++ {
		row := table.Row{
			table.IntValue(int64(i)),
			table.DoubleValue(float64(i) * 0.25),
			table.StringValue(cities[i%len(cities)]),
			table.DateValue(base.Add(time.Duration(i) * time.Minute)),
		}
		switch i % 7 {
		case 3:
			row[1] = table.MissingValue(table.KindDouble)
		case 5:
			row[2] = table.MissingValue(table.KindString)
		}
		b.AppendRow(row)
	}
	return b.Freeze(id)
}

func tablesEqual(t *testing.T, a, b *table.Table) {
	t.Helper()
	if !a.Schema().Equal(b.Schema()) {
		t.Fatalf("schemas differ: %v vs %v", a.Schema(), b.Schema())
	}
	ra, rb := a.Rows(), b.Rows()
	if len(ra) != len(rb) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if !ra[i].Equal(rb[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, ra[i], rb[i])
		}
	}
}

// readHVC reads an .hvc file the way a scan does: mapped through a
// pool as one partition, every column acquired and CRC-checked.
func readHVC(t *testing.T, path, id string) (*table.Table, error) {
	t.Helper()
	src, err := NewPooledSource(colstore.NewPool(0), []PooledFileSpec{{Path: path, ID: id}}, math.MaxInt)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { src.Close() })
	got, release, err := src.Acquire(0, nil)
	if err != nil {
		return nil, err
	}
	release()
	return got, nil
}

// readHeap is the eager reference: an .hvc file's bytes decoded onto
// the heap by the same decoder.
func readHeap(t *testing.T, path, id string) *table.Table {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := colstore.ReadHVC2Bytes(data, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// loadParts opens source as the loader does and acquires every
// partition whole.
func loadParts(t *testing.T, source, id string, microRows int) ([]*table.Table, error) {
	t.Helper()
	src, err := openSource(colstore.NewPool(0), nil, source, id, microRows)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { src.Close() })
	parts := make([]*table.Table, len(src.Leaves()))
	for i := range parts {
		p, release, err := src.Acquire(i, nil)
		if err != nil {
			return nil, err
		}
		release()
		parts[i] = p
	}
	return parts, nil
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "csv", 100)
	path := filepath.Join(dir, "data.csv")
	if err := WriteCSV(path, orig); err != nil {
		t.Fatal(err)
	}
	// With explicit schema.
	got, err := ReadCSV(path, "csv", orig.Schema())
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, orig, got)
	// With inference.
	inferred, err := ReadCSV(path, "csv", nil)
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, orig, inferred)
}

func TestCSVInference(t *testing.T) {
	src := "a,b,c,d\n1,1.5,hello,2020-01-02\n2,2,world,2020-02-03\n,,,\n"
	got, err := ReadCSVFrom(strings.NewReader(src), "inf", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []table.Kind{table.KindInt, table.KindDouble, table.KindString, table.KindDate}
	for i, k := range wantKinds {
		if got.Schema().Columns[i].Kind != k {
			t.Errorf("column %d inferred %v, want %v", i, got.Schema().Columns[i].Kind, k)
		}
	}
	// Row 3 is all missing.
	row := got.GetRow(2)
	for i, v := range row {
		if !v.Missing {
			t.Errorf("row 2 col %d = %v, want missing", i, v)
		}
	}
	// Unparseable cells degrade to missing, not errors.
	src2 := "a\n1\njunk\n3\n"
	got2, err := ReadCSVFrom(strings.NewReader(src2), "inf2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Schema().Columns[0].Kind != table.KindString {
		// With "junk" in the sample, the column infers as string.
		t.Errorf("kind = %v", got2.Schema().Columns[0].Kind)
	}
}

func TestCSVSchemaMismatch(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "a", Kind: table.KindInt})
	_, err := ReadCSVFrom(strings.NewReader("a,b\n1,2\n"), "x", schema)
	if err == nil {
		t.Error("column count mismatch should fail")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "jl", 50)
	path := filepath.Join(dir, "data.jsonl")
	if err := WriteJSONL(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(path, "jl", orig.Schema())
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, orig, got)
	// Inference sorts fields alphabetically; check kinds by name.
	inferred, err := ReadJSONL(path, "jl2", nil)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := inferred.Schema().Column("price")
	if err != nil || cd.Kind != table.KindDouble {
		t.Errorf("price inferred as %v (%v)", cd.Kind, err)
	}
	if inferred.NumRows() != 50 {
		t.Errorf("rows = %d", inferred.NumRows())
	}
}

func TestHVCRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "hvc", 333)
	path := filepath.Join(dir, "data.hvc")
	if err := colstore.WriteHVC2(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := readHVC(t, path, "hvc")
	if err != nil {
		t.Fatal(err)
	}
	tablesEqual(t, orig, got)
	if got.ID() != "hvc" || got.NumRows() != 333 {
		t.Errorf("id/rows = %q/%d", got.ID(), got.NumRows())
	}
}

func TestHVCColumnAccess(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "hvcc", 200)
	path := filepath.Join(dir, "data.hvc")
	if err := colstore.WriteHVC2(path, orig); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := colstore.ReadHVC2Bytes(data, "hvcc", []string{"city", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().NumColumns() != 2 {
		t.Fatalf("columns = %d", got.Schema().NumColumns())
	}
	city, id := orig.Schema().ColumnIndex("city"), orig.Schema().ColumnIndex("id")
	proj := table.New("p", table.NewSchema(orig.Schema().Columns[city], orig.Schema().Columns[id]),
		[]table.Column{orig.ColumnAt(city), orig.ColumnAt(id)}, orig.Members())
	tablesEqual(t, proj, got)
	if _, err := colstore.ReadHVC2Bytes(data, "x", []string{"nope"}); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestHVCFilteredViewFlattens(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "hvf", 100)
	id := orig.MustColumn("id")
	filtered := orig.Filter("f", func(row int) bool { return id.Int(row)%2 == 0 })
	path := filepath.Join(dir, "f.hvc")
	if err := colstore.WriteHVC2(path, filtered); err != nil {
		t.Fatal(err)
	}
	got, err := readHVC(t, path, "f")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 50 {
		t.Fatalf("rows = %d, want 50", got.NumRows())
	}
	// Values correspond to the filtered view.
	rows := got.Rows()
	want := filtered.Rows()
	for i := range rows {
		if !rows[i].Equal(want[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestHVCBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.hvc")
	if err := os.WriteFile(path, []byte("JUNKJUNKJUNK"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readHVC(t, path, "junk"); !errors.Is(err, colstore.ErrNotHVC2) {
		t.Errorf("bad magic: %v, want ErrNotHVC2", err)
	}
}

func TestSplitRows(t *testing.T) {
	orig := sampleTable(t, "split", 1000)
	parts := SplitRows(orig, 300)
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	total := 0
	ids := map[string]bool{}
	for _, p := range parts {
		total += p.NumRows()
		if ids[p.ID()] {
			t.Errorf("duplicate partition ID %q", p.ID())
		}
		ids[p.ID()] = true
	}
	if total != 1000 {
		t.Errorf("split lost rows: %d", total)
	}
	// Values preserved in order.
	idCol := parts[1].MustColumn("id")
	first := -1
	parts[1].Members().Iterate(func(i int) bool {
		first = int(idCol.Int(i))
		return false
	})
	if first != 300 {
		t.Errorf("partition 1 starts at id %d, want 300", first)
	}
	// Small tables stay whole.
	if got := SplitRows(orig, 100000); len(got) != 1 {
		t.Errorf("small table split into %d", len(got))
	}
}

func TestLoadSourceDir(t *testing.T) {
	dir := t.TempDir()
	a := sampleTable(t, "a", 120)
	bt := sampleTable(t, "b", 80)
	if err := WriteCSV(filepath.Join(dir, "a.csv"), a); err != nil {
		t.Fatal(err)
	}
	if err := colstore.WriteHVC2(filepath.Join(dir, "b.hvc"), bt); err != nil {
		t.Fatal(err)
	}
	// Also drop a file the loader must ignore.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	parts, err := loadParts(t, "dir:"+dir, "d", 50)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range parts {
		total += p.NumRows()
	}
	if total != 200 {
		t.Errorf("total rows = %d, want 200", total)
	}
	if len(parts) < 4 {
		t.Errorf("expected micropartitioning, got %d parts", len(parts))
	}
	// file: prefix and bare paths.
	parts, err = loadParts(t, "file:"+filepath.Join(dir, "a.csv"), "f", 0)
	if err != nil || len(parts) != 1 {
		t.Fatalf("file source: %v, %d parts", err, len(parts))
	}
	if _, err := loadParts(t, filepath.Join(dir, "a.csv"), "f2", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := loadParts(t, "nosuchscheme:xx", "x", 0); err == nil {
		t.Error("unknown scheme should fail")
	}
	if _, err := loadParts(t, "dir:"+t.TempDir(), "x", 0); err == nil {
		t.Error("empty dir should fail")
	}
}

func TestInferKind(t *testing.T) {
	cases := []struct {
		samples []string
		want    table.Kind
	}{
		{[]string{"1", "2", ""}, table.KindInt},
		{[]string{"1", "2.5"}, table.KindDouble},
		{[]string{"1e3"}, table.KindDouble},
		{[]string{"2020-01-01", "2021-12-31"}, table.KindDate},
		{[]string{"2020-01-01 10:20:30"}, table.KindDate},
		{[]string{"abc"}, table.KindString},
		{[]string{"1", "abc"}, table.KindString},
		{[]string{"", ""}, table.KindString},
		{nil, table.KindString},
	}
	for _, c := range cases {
		if got := InferKind(c.samples); got != c.want {
			t.Errorf("InferKind(%v) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	if v := ParseValue(" 42 ", table.KindInt); v.Missing || v.I != 42 {
		t.Errorf("int = %v", v)
	}
	if v := ParseValue("bad", table.KindInt); !v.Missing {
		t.Errorf("junk int = %v", v)
	}
	if v := ParseValue("2.5", table.KindDouble); v.D != 2.5 {
		t.Errorf("double = %v", v)
	}
	if v := ParseValue("2020-06-01", table.KindDate); v.Missing {
		t.Errorf("date = %v", v)
	}
	if v := ParseValue("", table.KindString); !v.Missing {
		t.Errorf("empty = %v", v)
	}
	if v := ParseValue("x", table.KindString); v.S != "x" {
		t.Errorf("string = %v", v)
	}
}
