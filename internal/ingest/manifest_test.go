package ingest

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/table"
)

var testSchema = table.NewSchema(
	table.ColumnDesc{Name: "a", Kind: table.KindInt},
	table.ColumnDesc{Name: "b", Kind: table.KindString},
)

// buildManifest renders a full manifest image: header, schema, seals.
func buildManifest(schema *table.Schema, seals ...sealRecord) []byte {
	data := append([]byte(nil), manifestMagic[:]...)
	data = append(data, frameRecord(encodeSchemaRecord(schema))...)
	for _, r := range seals {
		data = append(data, frameRecord(encodeSealRecord(r))...)
	}
	return data
}

// isPrefix reports whether got is exactly full[:len(got)].
func isPrefix(got, full []sealRecord) bool {
	if len(got) > len(full) {
		return false
	}
	for i := range got {
		if got[i] != full[i] {
			return false
		}
	}
	return true
}

func mkSeals(n int) []sealRecord {
	out := make([]sealRecord, n)
	for i := range out {
		seq := uint64(i + 1)
		out[i] = sealRecord{Seq: seq, Rows: 10 * (i + 1), Name: partName(seq)}
	}
	return out
}

func TestManifestRoundTrip(t *testing.T) {
	seals := mkSeals(5)
	data := buildManifest(testSchema, seals...)
	v, err := scanManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.torn {
		t.Fatal("clean manifest reported torn")
	}
	if v.validLen != int64(len(data)) {
		t.Fatalf("validLen = %d, want %d", v.validLen, len(data))
	}
	if !slices.Equal(v.schema.Columns, testSchema.Columns) {
		t.Fatalf("schema round trip mismatch: %+v", v.schema)
	}
	if !reflect.DeepEqual(v.seals, seals) {
		t.Fatalf("seals round trip mismatch:\n%+v\n%+v", v.seals, seals)
	}
}

// TestManifestEveryTruncation pins the core recovery property: any
// byte-prefix of a valid manifest decodes to a prefix of its seals —
// never an error (past the schema record), never a reordered or
// invented seal.
func TestManifestEveryTruncation(t *testing.T) {
	seals := mkSeals(4)
	data := buildManifest(testSchema, seals...)
	headerLen := len(manifestMagic) + len(frameRecord(encodeSchemaRecord(testSchema)))
	for cut := 0; cut <= len(data); cut++ {
		v, err := scanManifest(data[:cut])
		if cut < headerLen {
			if !errors.Is(err, ErrNoDataset) {
				t.Fatalf("cut=%d (inside header/schema): err = %v, want ErrNoDataset", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: unexpected error %v", cut, err)
		}
		if v.validLen > int64(cut) {
			t.Fatalf("cut=%d: validLen %d beyond image", cut, v.validLen)
		}
		if v.torn != (int64(cut) > v.validLen) {
			t.Fatalf("cut=%d: torn=%v validLen=%d", cut, v.torn, v.validLen)
		}
		if !isPrefix(v.seals, seals) {
			t.Fatalf("cut=%d: seals are not a prefix: %+v", cut, v.seals)
		}
	}
}

// TestManifestEveryCorruption flips each byte of the image in turn; the
// scan must never panic and must never yield seals that are not a
// prefix of the true sequence.
func TestManifestEveryCorruption(t *testing.T) {
	seals := mkSeals(3)
	data := buildManifest(testSchema, seals...)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		v, err := scanManifest(mut)
		if err != nil {
			continue // header/schema damage: no dataset, fine
		}
		if !isPrefix(v.seals, seals) {
			t.Fatalf("flip at %d: recovered non-prefix seals %+v", i, v.seals)
		}
		if len(v.seals) < len(seals) && !v.torn {
			t.Fatalf("flip at %d: dropped seals without reporting torn", i)
		}
	}
}

func TestManifestRejectsSeqGap(t *testing.T) {
	// A record claiming seq 3 directly after seq 1 must stop the scan.
	data := buildManifest(testSchema, sealRecord{Seq: 1, Rows: 1, Name: partName(1)})
	good := len(data)
	data = append(data, frameRecord(encodeSealRecord(sealRecord{Seq: 3, Rows: 1, Name: partName(3)}))...)
	v, err := scanManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.seals) != 1 || !v.torn || v.validLen != int64(good) {
		t.Fatalf("gap record accepted: seals=%d torn=%v validLen=%d want 1/true/%d", len(v.seals), v.torn, v.validLen, good)
	}
}

func TestManifestBoundsHugeLength(t *testing.T) {
	data := buildManifest(testSchema)
	data = binary.LittleEndian.AppendUint32(data, 1<<31-1)
	data = append(data, make([]byte, 64)...)
	v, err := scanManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !v.torn || len(v.seals) != 0 {
		t.Fatalf("oversized length field not treated as torn tail: %+v", v)
	}
}

func TestReadManifestMissing(t *testing.T) {
	if _, err := readManifest(NewMemFS(), "nope/MANIFEST"); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("missing manifest: err = %v, want ErrNoDataset", err)
	}
}
