package colstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/table"
)

// HVC2 is the repository's columnar file format, mmap-native. It stores
// independently addressable column blocks behind a schema header; every
// fixed-width payload is raw little-endian and 64-byte aligned so a
// mapped block reinterprets directly as a typed slice, and every block
// carries a CRC32-C so a truncated or corrupted column surfaces as an
// error, not as silently wrong data. (Its varint predecessor, HVC1, is
// no longer read: such a file fails with ErrNotHVC2.)
//
// Layout (integers little-endian; uvarint is Go's encoding/binary):
//
//	magic    "HVC2"            // byte 3 is the format version
//	numCols  uint32
//	numRows  uint64
//	numCols × { nameLen uvarint, name bytes, kind byte }
//	numCols × { blockOff uint64, blockLen uint64 }   // the directory
//	pad to 64
//	numCols × column block (each 64-byte aligned)
//
// Column block (blockLen covers everything including the trailer):
//
//	fixed 64-byte header:
//	  payloadOff uint64   // relative to block start; 64-byte aligned
//	  payloadLen uint64   // rows×8 (int/date/double) or rows×4 (codes)
//	  missingOff uint64   // 0 when no row is missing; 64-byte aligned
//	  missingLen uint64   // ceil(rows/64)×8
//	  dictOff    uint64   // 0 for non-string columns
//	  dictLen    uint64   // bytes of dict section
//	  dictCount  uint64   // dictionary entries
//	  reserved   uint64   // must be 0
//	payload bytes, pad to 64
//	missing bitmap words, pad to 64
//	dict section: dictCount × { len uvarint, bytes }, sorted ascending
//	crc32c   uint32       // over block[0 : blockLen-4]
//
// Files always hold dense tables: the writer flattens filtered views to
// their member rows, missing cells store canonical zero values, and
// string dictionaries contain exactly the values that occur, sorted, so
// re-reading reconstructs the column store's in-memory invariants
// (sorted dictionaries, code order = lexicographic order) with no
// re-encoding.
const (
	magicV2     = "HVC2"
	blockHeader = 64
	blockAlign  = 64
)

// crcTable is CRC32-C (Castagnoli), hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNotHVC2 reports that a file does not begin with an HVC2 header —
// a leftover HVC1 file, or not a column file at all. Nothing reads
// such a file; OpenFile wraps it with the path.
var ErrNotHVC2 = errors.New("colstore: not an HVC2 file")

func pad64(n int64) int64 { return (n + blockAlign - 1) &^ (blockAlign - 1) }

// WriteHVC2 stores the member rows of t at path in the HVC2 layout. It
// writes path+".tmp", which no loader lists, and renames it over path,
// so a process that has the old file mapped keeps reading the old
// bytes instead of faulting on a truncated mapping.
func WriteHVC2(path string, t *table.Table) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = WriteHVC2To(f, t)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// colPlan is the precomputed geometry of one column block. String
// payloads (codes, dict) are materialized during planning; numeric
// payloads are gathered one column at a time while writing.
type colPlan struct {
	kind      table.Kind
	missing   *table.Bitset // over output rows; nil when none missing
	codes     []int32       // string columns only
	dictBytes []byte
	dictCount int

	payloadLen, missingLen, dictLen int64
	blockOff, blockLen              int64
}

// WriteHVC2To writes the HVC2 encoding of t's member rows.
func WriteHVC2To(w io.Writer, t *table.Table) error {
	schema := t.Schema()
	rows := t.NumRows()

	plans := make([]*colPlan, schema.NumColumns())
	for c := range plans {
		p, err := planColumn(t, c, rows)
		if err != nil {
			return err
		}
		plans[c] = p
	}

	// Header + directory, then assign aligned block offsets.
	var head bytes.Buffer
	head.WriteString(magicV2)
	binary.Write(&head, binary.LittleEndian, uint32(schema.NumColumns()))
	binary.Write(&head, binary.LittleEndian, uint64(rows))
	for _, cd := range schema.Columns {
		writeUvarint(&head, uint64(len(cd.Name)))
		head.WriteString(cd.Name)
		head.WriteByte(byte(cd.Kind))
	}
	off := pad64(int64(head.Len()) + 16*int64(len(plans)))
	for _, p := range plans {
		p.blockOff = off
		payloadEnd := int64(blockHeader) + p.payloadLen
		missingEnd := pad64(payloadEnd) + p.missingLen
		p.blockLen = pad64(missingEnd) + p.dictLen + 4 // + crc trailer
		off = pad64(p.blockOff + p.blockLen)
	}
	for _, p := range plans {
		binary.Write(&head, binary.LittleEndian, uint64(p.blockOff))
		binary.Write(&head, binary.LittleEndian, uint64(p.blockLen))
	}
	headPad := pad64(int64(head.Len())) - int64(head.Len())
	if _, err := w.Write(head.Bytes()); err != nil {
		return err
	}
	if err := writeZeros(w, headPad); err != nil {
		return err
	}

	written := pad64(int64(head.Len()))
	var block bytes.Buffer
	for c, p := range plans {
		block.Reset()
		if err := encodeBlockV2(&block, t, c, rows, p); err != nil {
			return err
		}
		crc := crc32.Checksum(block.Bytes(), crcTable)
		binary.Write(&block, binary.LittleEndian, crc)
		if int64(block.Len()) != p.blockLen {
			return fmt.Errorf("colstore: internal: block %d is %d bytes, planned %d", c, block.Len(), p.blockLen)
		}
		if err := writeZeros(w, p.blockOff-written); err != nil {
			return err
		}
		if _, err := w.Write(block.Bytes()); err != nil {
			return err
		}
		written = p.blockOff + p.blockLen
	}
	return nil
}

// planColumn computes block geometry and materializes the small parts
// (missing bitmap, string codes and dictionary) of column c.
func planColumn(t *table.Table, c, rows int) (*colPlan, error) {
	col := t.ColumnAt(c)
	p := &colPlan{kind: col.Kind()}

	var miss *table.Bitset
	switch c := col.(type) {
	case *table.IntColumn:
		miss = c.MissingMask()
		p.payloadLen = 8 * int64(rows)
	case *table.DoubleColumn:
		miss = c.MissingMask()
		p.payloadLen = 8 * int64(rows)
	case *table.StringColumn:
		miss = c.MissingMask()
		planString(t, c, rows, p)
		p.payloadLen = 4 * int64(rows)
	default:
		return nil, fmt.Errorf("colstore: hvc2 cannot encode kind %v", col.Kind())
	}

	// Missing bitmap over output row positions.
	if miss != nil {
		missing := table.NewBitset(rows)
		hasMissing := false
		pos := 0
		t.Members().Iterate(func(row int) bool {
			if miss.Get(row) {
				missing.Set(pos)
				hasMissing = true
			}
			pos++
			return true
		})
		if hasMissing {
			p.missing = missing
			p.missingLen = 8 * int64(len(missing.Words))
		}
	}
	return p, nil
}

// planString builds the member-row code vector and the dense sorted
// output dictionary: it gathers member codes, finds which dictionary
// entries occur, and remaps to the dense subset; a subset of a sorted
// dictionary is still sorted. Missing rows get canonical code 0 (their
// stored code may index nothing: an all-missing column has an empty
// dictionary).
func planString(t *table.Table, sc *table.StringColumn, rows int, p *colPlan) {
	var dict []string
	codes := make([]int32, 0, rows)
	used := make([]bool, sc.DictSize())
	scCodes, miss := sc.Codes(), sc.MissingMask()
	t.Members().Iterate(func(row int) bool {
		if miss.Get(row) {
			codes = append(codes, -1)
		} else {
			code := scCodes[row]
			used[code] = true
			codes = append(codes, code)
		}
		return true
	})
	remap := make([]int32, sc.DictSize())
	for i, u := range used {
		if u {
			remap[i] = int32(len(dict))
			dict = append(dict, sc.Dict()[i])
		}
	}
	for i, code := range codes {
		if code < 0 {
			codes[i] = 0
		} else {
			codes[i] = remap[code]
		}
	}

	var db bytes.Buffer
	for _, s := range dict {
		writeUvarint(&db, uint64(len(s)))
		db.WriteString(s)
	}
	p.codes = codes
	p.dictBytes = db.Bytes()
	p.dictCount = len(dict)
	p.dictLen = int64(db.Len())
}

// encodeBlockV2 writes the block for column c (header, payload,
// missing bitmap, dict; no CRC trailer) into buf.
func encodeBlockV2(buf *bytes.Buffer, t *table.Table, c, rows int, p *colPlan) error {
	payloadEnd := int64(blockHeader) + p.payloadLen
	missingOff := int64(0)
	if p.missing != nil {
		missingOff = pad64(payloadEnd)
	}
	dictOff := int64(0)
	if p.kind == table.KindString {
		dictOff = pad64(pad64(payloadEnd) + p.missingLen)
	}

	var hdr [blockHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(blockHeader))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.payloadLen))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(missingOff))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(p.missingLen))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(dictOff))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(p.dictLen))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(p.dictCount))
	buf.Write(hdr[:])

	switch col := t.ColumnAt(c).(type) {
	case *table.IntColumn:
		buf.Write(int64Bytes(gatherCells(t, col.Ints(), col.MissingMask(), rows)))
	case *table.DoubleColumn:
		buf.Write(float64Bytes(gatherCells(t, col.Doubles(), col.MissingMask(), rows)))
	case *table.StringColumn:
		buf.Write(int32Bytes(p.codes))
	}
	pad := pad64(payloadEnd) - payloadEnd
	buf.Write(make([]byte, pad))

	if p.missing != nil {
		buf.Write(uint64Bytes(p.missing.Words))
		end := pad64(payloadEnd) + p.missingLen
		buf.Write(make([]byte, pad64(end)-end))
	}
	if p.kind == table.KindString {
		buf.Write(p.dictBytes)
	}
	return nil
}

// gatherCells flattens the member rows of a numeric column, storing
// canonical zero for missing cells. A full-membership column with no
// missing values passes its backing slice through untouched.
func gatherCells[T int64 | float64](t *table.Table, vals []T, miss *table.Bitset, rows int) []T {
	if miss == nil && t.NumRows() == len(vals) {
		return vals
	}
	out := make([]T, 0, rows)
	t.Members().Iterate(func(row int) bool {
		var v T
		if !miss.Get(row) {
			v = vals[row]
		}
		out = append(out, v)
		return true
	})
	return out
}

func writeZeros(w io.Writer, n int64) error {
	if n <= 0 {
		return nil
	}
	_, err := w.Write(make([]byte, n))
	return err
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// dirEntry locates one column block.
type dirEntry struct {
	off, len int64
}

// v2Header is the decoded header of an HVC2 image.
type v2Header struct {
	schema *table.Schema
	rows   int
	dir    []dirEntry
}

// parseV2 decodes and validates an HVC2 header from the start of data.
// Every declared count is checked against the image size before any
// allocation, so malformed or adversarial input produces an error,
// never a panic or an oversized allocation (the FuzzHVC contract).
func parseV2(data []byte) (*v2Header, error) {
	size := int64(len(data))
	if size < 16 || string(data[:4]) != magicV2 {
		return nil, ErrNotHVC2
	}
	numCols := binary.LittleEndian.Uint32(data[4:])
	numRows := binary.LittleEndian.Uint64(data[8:])
	// Every column costs at least 2 name-section bytes, a 16-byte
	// directory entry, and a 68-byte block; every row at least 4 payload
	// bytes per column.
	if int64(numCols) > size/16 {
		return nil, fmt.Errorf("colstore: hvc2 header declares %d columns in a %d-byte file", numCols, size)
	}
	if numRows > uint64(size) {
		return nil, fmt.Errorf("colstore: hvc2 header declares %d rows in a %d-byte file", numRows, size)
	}
	pos := int64(16)
	cols := make([]table.ColumnDesc, numCols)
	seen := make(map[string]bool, numCols)
	for i := range cols {
		n, w := binary.Uvarint(data[pos:])
		if w <= 0 || n > uint64(size) || pos+int64(w)+int64(n)+1 > size {
			return nil, fmt.Errorf("colstore: hvc2 truncated column name %d", i)
		}
		pos += int64(w)
		name := string(data[pos : pos+int64(n)])
		pos += int64(n)
		kind := table.Kind(data[pos])
		pos++
		switch kind {
		case table.KindInt, table.KindDouble, table.KindString, table.KindDate:
		default:
			return nil, fmt.Errorf("colstore: hvc2 column %q has unknown kind %d", name, kind)
		}
		if seen[name] {
			return nil, fmt.Errorf("colstore: hvc2 duplicate column %q", name)
		}
		seen[name] = true
		cols[i] = table.ColumnDesc{Name: name, Kind: kind}
	}
	if pos+16*int64(numCols) > size {
		return nil, fmt.Errorf("colstore: hvc2 truncated directory")
	}
	dir := make([]dirEntry, numCols)
	for i := range dir {
		off := int64(binary.LittleEndian.Uint64(data[pos:]))
		blen := int64(binary.LittleEndian.Uint64(data[pos+8:]))
		pos += 16
		if off < 0 || blen < blockHeader+4 || off+blen < off || off+blen > size {
			return nil, fmt.Errorf("colstore: hvc2 column %d block [%d,+%d) outside %d-byte file", i, off, blen, size)
		}
		if off&(blockAlign-1) != 0 {
			return nil, fmt.Errorf("colstore: hvc2 column %d block offset %d not %d-aligned", i, off, blockAlign)
		}
		dir[i] = dirEntry{off: off, len: blen}
	}
	return &v2Header{schema: table.NewSchema(cols...), rows: int(numRows), dir: dir}, nil
}

// checkCRC validates the CRC32-C trailer of column ci's block.
func (h *v2Header) checkCRC(data []byte, ci int) error {
	d := h.dir[ci]
	block := data[d.off : d.off+d.len]
	want := binary.LittleEndian.Uint32(block[len(block)-4:])
	if got := crc32.Checksum(block[:len(block)-4], crcTable); got != want {
		return fmt.Errorf("colstore: column %q block CRC mismatch (got %08x, want %08x)",
			h.schema.Columns[ci].Name, got, want)
	}
	return nil
}

// column materializes column ci over the file image. Fixed-width
// payloads and missing bitmaps are reinterpreted in place (zero-copy on
// little-endian hosts); dictionary bytes are decoded to the heap. The
// returned size counts the bytes the column keeps resident.
func (h *v2Header) column(data []byte, ci int) (table.Column, int64, error) {
	d := h.dir[ci]
	block := data[d.off : d.off+d.len]
	body := int64(len(block)) - 4 // CRC trailer excluded
	payloadOff := int64(binary.LittleEndian.Uint64(block[0:]))
	payloadLen := int64(binary.LittleEndian.Uint64(block[8:]))
	missingOff := int64(binary.LittleEndian.Uint64(block[16:]))
	missingLen := int64(binary.LittleEndian.Uint64(block[24:]))
	dictOff := int64(binary.LittleEndian.Uint64(block[32:]))
	dictLen := int64(binary.LittleEndian.Uint64(block[40:]))
	dictCount := int64(binary.LittleEndian.Uint64(block[48:]))

	kind := h.schema.Columns[ci].Kind
	rows := int64(h.rows)
	width := int64(8)
	if kind == table.KindString {
		width = 4
	}
	section := func(name string, off, length int64) ([]byte, error) {
		if off < blockHeader || length < 0 || off+length < off || off+length > body {
			return nil, fmt.Errorf("colstore: column %q %s section [%d,+%d) outside block of %d bytes",
				h.schema.Columns[ci].Name, name, off, length, body)
		}
		return block[off : off+length], nil
	}
	if payloadLen != width*rows {
		return nil, 0, fmt.Errorf("colstore: column %q payload is %d bytes, want %d for %d rows",
			h.schema.Columns[ci].Name, payloadLen, width*rows, rows)
	}
	payload, err := section("payload", payloadOff, payloadLen)
	if err != nil {
		return nil, 0, err
	}

	var missing *table.Bitset
	size := payloadLen
	if missingOff != 0 {
		wantLen := 8 * int64((rows+63)/64)
		if missingLen != wantLen {
			return nil, 0, fmt.Errorf("colstore: column %q missing bitmap is %d bytes, want %d",
				h.schema.Columns[ci].Name, missingLen, wantLen)
		}
		mb, err := section("missing", missingOff, missingLen)
		if err != nil {
			return nil, 0, err
		}
		missing = &table.Bitset{Words: uint64View(mb, int(rows+63)/64), N: int(rows)}
		size += missingLen
	}

	switch kind {
	case table.KindInt, table.KindDate:
		return table.NewIntColumn(kind, int64View(payload, int(rows)), missing), size, nil
	case table.KindDouble:
		return table.NewDoubleColumn(float64View(payload, int(rows)), missing), size, nil
	case table.KindString:
		db, err := section("dict", dictOff, dictLen)
		if err != nil {
			return nil, 0, err
		}
		if dictCount > dictLen && dictCount > 0 {
			return nil, 0, fmt.Errorf("colstore: column %q declares %d dictionary entries in %d bytes",
				h.schema.Columns[ci].Name, dictCount, dictLen)
		}
		dict := make([]string, dictCount)
		pos := 0
		dictHeap := int64(0)
		for i := range dict {
			n, w := binary.Uvarint(db[pos:])
			if w <= 0 || uint64(pos)+uint64(w)+n > uint64(len(db)) {
				return nil, 0, fmt.Errorf("colstore: column %q truncated dictionary entry %d",
					h.schema.Columns[ci].Name, i)
			}
			pos += w
			dict[i] = string(db[pos : pos+int(n)])
			pos += int(n)
			dictHeap += int64(n) + 16
		}
		codes := int32View(payload, int(rows))
		if err := validateCodes(codes, int32(dictCount), missing, h.schema.Columns[ci].Name); err != nil {
			return nil, 0, err
		}
		col, err := table.NewDictColumn(dict, codes, missing)
		if err != nil {
			return nil, 0, err
		}
		return col, size + dictHeap, nil
	default:
		return nil, 0, fmt.Errorf("colstore: unknown kind %v", kind)
	}
}

// validateCodes checks every code indexes the dictionary. Missing rows
// hold the canonical code 0; an empty dictionary is legal only when
// every row is missing (or there are no rows).
func validateCodes(codes []int32, dictCount int32, missing *table.Bitset, name string) error {
	if dictCount == 0 {
		if len(codes) > 0 && (missing == nil || missing.Count() != len(codes)) {
			return fmt.Errorf("colstore: column %q has rows but an empty dictionary", name)
		}
		for _, c := range codes {
			if c != 0 {
				return fmt.Errorf("colstore: column %q code %d with empty dictionary", name, c)
			}
		}
		return nil
	}
	for _, c := range codes {
		if c < 0 || c >= dictCount {
			return fmt.Errorf("colstore: column %q code %d out of dictionary range %d", name, c, dictCount)
		}
	}
	return nil
}

// ReadHVC2Bytes decodes an in-memory HVC2 image onto the heap,
// validating every requested column's CRC. cols nil selects every
// column. No production path calls it: it is the independent decoder
// the tests compare the mapped path against (testkit's heap references
// for the pooled and ingest batteries) and the fuzz target's entry;
// malformed input of any shape must produce an error, never a panic.
func ReadHVC2Bytes(data []byte, id string, cols []string) (*table.Table, error) {
	h, err := parseV2(data)
	if err != nil {
		return nil, err
	}
	// nil selects every column and an unknown name is an error (the
	// pooled source skips unknown names instead, so a sketch over a
	// missing column fails with its ordinary error).
	want := make([]int, 0, h.schema.NumColumns())
	for i := 0; cols == nil && i < h.schema.NumColumns(); i++ {
		want = append(want, i)
	}
	for _, name := range cols {
		i := h.schema.ColumnIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("colstore: no column %q", name)
		}
		want = append(want, i)
	}
	outCols := make([]table.Column, len(want))
	outDesc := make([]table.ColumnDesc, len(want))
	for k, ci := range want {
		if err := h.checkCRC(data, ci); err != nil {
			return nil, err
		}
		col, _, err := h.column(data, ci)
		if err != nil {
			return nil, err
		}
		outCols[k] = col
		outDesc[k] = h.schema.Columns[ci]
	}
	return table.New(id, table.NewSchema(outDesc...), outCols, table.FullMembership(h.rows)), nil
}

// File is an open HVC2 file served by memory mapping. Columns
// materialize on demand through Column; the mapping itself is created
// at open (address space, not memory — pages fault in as columns are
// touched) and released at Close. A File over an in-memory image
// (NewImageFile) serves the same columns from the image. Files are safe
// for concurrent use.
type File struct {
	path string
	f    *os.File // nil for an in-memory image
	size int64
	hdr  *v2Header

	mu        sync.Mutex
	mapped    []byte
	validated []bool // per-column CRC already checked (files are immutable)

	// cols keeps weak references to materialized columns so that
	// re-materializing after a pool eviction returns the identical
	// object while anything still holds it (see WeakColumns).
	cols WeakColumns
}

// OpenFile maps an HVC2 file. A file with a different magic returns
// ErrNotHVC2, wrapped with the path.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m, err := mmapFile(f, info.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("colstore: mmap %s: %w", path, err)
	}
	file, err := newFile(path, f, m)
	if err != nil {
		munmap(m)
		f.Close()
	}
	return file, err
}

// NewImageFile serves an in-memory HVC2 image through the File API, as
// if path were mapped: the same header checks at open, the same
// per-column CRC on first touch, the same zero-copy columns aliasing
// the image. The caller must never modify data afterwards. Evicting
// such a column releases nothing: MADV_DONTNEED on heap memory would
// zero it, and the image is the only copy.
func NewImageFile(path string, data []byte) (*File, error) {
	return newFile(path, nil, data)
}

func newFile(path string, f *os.File, data []byte) (*File, error) {
	h, err := parseV2(data)
	if err != nil {
		if errors.Is(err, ErrNotHVC2) {
			return nil, fmt.Errorf("%w: %s", ErrNotHVC2, path)
		}
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	return &File{
		path:      path,
		f:         f,
		size:      int64(len(data)),
		hdr:       h,
		mapped:    data,
		validated: make([]bool, h.schema.NumColumns()),
	}, nil
}

// Schema returns the file's column schema.
func (f *File) Schema() *table.Schema { return f.hdr.schema }

// Rows returns the number of stored rows.
func (f *File) Rows() int { return f.hdr.rows }

// Column materializes column ci: CRC-validated on first touch, then
// reinterpreted in place. The returned evict function releases the
// column's OS pages; it is safe to call while references to the column
// remain — the pages fault back in from the immutable file, so a stale
// reference reads bit-identical data, just colder. While any holder
// keeps the column alive, repeated calls return the identical object
// (weak caching), so a reload skips materializing it again.
func (f *File) Column(ci int) (col table.Column, size int64, evict func(), err error) {
	if ci < 0 || ci >= f.hdr.schema.NumColumns() {
		return nil, 0, nil, fmt.Errorf("colstore: %s: no column %d", f.path, ci)
	}
	return f.cols.Load(ci, func() (table.Column, int64, func(), error) {
		f.mu.Lock()
		if f.mapped == nil && f.size > 0 {
			f.mu.Unlock()
			return nil, 0, nil, fmt.Errorf("colstore: %s: file closed", f.path)
		}
		need := !f.validated[ci]
		m, onDisk := f.mapped, f.f != nil
		f.mu.Unlock()

		if need {
			// CRC outside the lock (it reads the whole block); marking
			// validated twice on a race is harmless.
			if err := f.hdr.checkCRC(m, ci); err != nil {
				return nil, 0, nil, err
			}
			f.mu.Lock()
			f.validated[ci] = true
			f.mu.Unlock()
		}
		col, size, err := f.hdr.column(m, ci)
		if err != nil {
			return nil, 0, nil, err
		}
		if !onDisk {
			return col, size, nil, nil
		}
		d := f.hdr.dir[ci]
		return col, size, func() { releasePages(m, d.off, d.off+d.len) }, nil
	})
}

// Verify checks the CRC32-C of every column block and marks each one
// validated, so no Column checks it again; the header and the directory
// were checked at open. A block's section bounds, dictionary and codes
// are still checked when its column first materializes. A mapped file's
// pages are released afterwards: verifying a file does not keep it
// resident.
func (f *File) Verify() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mapped == nil && f.size > 0 {
		return fmt.Errorf("colstore: %s: file closed", f.path)
	}
	for ci, done := range f.validated {
		if done {
			continue
		}
		if err := f.hdr.checkCRC(f.mapped, ci); err != nil {
			return fmt.Errorf("colstore: %s: %w", f.path, err)
		}
		f.validated[ci] = true
	}
	if f.f != nil {
		releasePages(f.mapped, 0, f.size)
	}
	return nil
}

// Close unmaps and closes the file. Columns materialized from it must
// no longer be used.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.mapped != nil && f.f != nil {
		err = munmap(f.mapped)
	}
	f.mapped = nil
	if f.f != nil {
		if cerr := f.f.Close(); err == nil {
			err = cerr
		}
		f.f = nil
	}
	return err
}
