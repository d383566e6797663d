package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/table"
)

// TestHVCTruncatedFile verifies truncated files fail cleanly instead of
// panicking or returning garbage: every cut lands in the header, the
// directory, or a block whose extent or CRC no longer checks out.
func TestHVCTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "tr", 500)
	path := filepath.Join(dir, "data.hvc")
	if err := colstore.WriteHVC2(path, orig); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 3, 10, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
		bad := filepath.Join(dir, "bad.hvc")
		if err := os.WriteFile(bad, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readHVC(t, bad, "bad"); err == nil {
			t.Errorf("truncation at %d bytes not detected", cut)
		}
	}
}

// TestHVCFooterDetectsCorruption verifies a flipped byte inside the last
// column block — just before its CRC32-C trailer — is refused by the
// read path rather than decoded as silently wrong data.
func TestHVCFooterDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	orig := sampleTable(t, "crc", 400)
	path := filepath.Join(dir, "data.hvc")
	if err := colstore.WriteHVC2(path, orig); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readHVC(t, path, "clean"); err != nil {
		t.Fatalf("clean file: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-10] ^= 0x20 // inside the last column block
	badPath := filepath.Join(dir, "bad.hvc")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readHVC(t, badPath, "bad"); err == nil {
		t.Error("corrupted block decoded without error despite its CRC")
	}
}

// legacyV1 is an HVC1 file written by the last writer that produced the
// format (fuzzSeedTable(9), with its CRC footer). It is kept only as
// input that must be refused.
const legacyV1 = "testdata/legacy-v1.hvc"

// TestHVC1FileRejected: a leftover HVC1 file is a typed error naming
// the file on every source form — one file or a directory, all-HVC or
// mixed with CSV — never a panic and never a silent fallback.
func TestHVC1FileRejected(t *testing.T) {
	blob, err := os.ReadFile(legacyV1)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob[:4]) != "HVC1" {
		t.Fatalf("%s does not start with the HVC1 magic", legacyV1)
	}
	hvcDir := t.TempDir()
	path := filepath.Join(hvcDir, "old.hvc")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	mixedDir := t.TempDir()
	if err := WriteCSV(filepath.Join(mixedDir, "a.csv"), sampleTable(t, "a", 10)); err != nil {
		t.Fatal(err)
	}
	mixedPath := filepath.Join(mixedDir, "old.hvc")
	if err := os.WriteFile(mixedPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	load := NewLoader(engine.Config{AggregationWindow: -1}, 0, nil)
	for _, tc := range []struct{ source, names string }{
		{"file:" + path, path},
		{"dir:" + hvcDir, path},
		{path, path},
		{"dir:" + mixedDir, mixedPath},
	} {
		_, err := load("ds", tc.source)
		if !errors.Is(err, colstore.ErrNotHVC2) {
			t.Errorf("%s: err = %v, want ErrNotHVC2", tc.source, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: error %q does not name %s", tc.source, err, tc.names)
		}
	}
}

// TestHVCAllMissingColumn round-trips a column that is missing in every
// row (empty dictionary case).
func TestHVCAllMissingColumn(t *testing.T) {
	schema := table.NewSchema(
		table.ColumnDesc{Name: "s", Kind: table.KindString},
		table.ColumnDesc{Name: "d", Kind: table.KindDouble},
	)
	b := table.NewBuilder(schema, 10)
	for i := 0; i < 10; i++ {
		b.AppendRow(table.Row{table.MissingValue(table.KindString), table.MissingValue(table.KindDouble)})
	}
	orig := b.Freeze("allmiss")
	dir := t.TempDir()
	path := filepath.Join(dir, "m.hvc")
	if err := colstore.WriteHVC2(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := readHVC(t, path, "allmiss")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !got.MustColumn("s").Value(i).Missing || !got.MustColumn("d").Value(i).Missing {
			t.Fatal("missing mask lost")
		}
	}
}

// TestCSVQuotedValues round-trips values that stress CSV quoting.
func TestCSVQuotedValues(t *testing.T) {
	schema := table.NewSchema(table.ColumnDesc{Name: "s", Kind: table.KindString})
	b := table.NewBuilder(schema, 4)
	for _, s := range []string{`comma, inside`, `quote " inside`, "new\nline", `plain`} {
		b.AppendRow(table.Row{table.StringValue(s)})
	}
	orig := b.Freeze("quoted")
	dir := t.TempDir()
	path := filepath.Join(dir, "q.csv")
	if err := WriteCSV(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(path, "quoted", orig.Schema())
	if err != nil {
		t.Fatal(err)
	}
	rows := got.Rows()
	want := orig.Rows()
	for i := range want {
		if !rows[i].Equal(want[i]) {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

// TestLoadFileUnknownExtension rejects unsupported formats.
func TestLoadFileUnknownExtension(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.parquet")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, "x"); err == nil {
		t.Error("unknown extension should fail")
	}
}
