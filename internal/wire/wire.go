// Package wire holds the primitive binary encoding shared by the
// cluster's stateless frame codec: little-endian fixed-width words for
// counter and float arrays (the colstore raw-layout convention, so a
// summary's hot arrays encode with one bounds check per element and
// decode with one length check per array), uvarints for lengths and
// small counters, and zigzag varints for signed integers (sketch
// parameters such as K, heavy-hitter counters).
//
// Every Consume* function is hardened against crafted input: a length
// prefix is validated against the bytes actually remaining *before* any
// allocation, so a frame that declares a billion elements but carries
// ten bytes is rejected with ErrCorrupt instead of an attempted
// gigabyte allocation (the HVC-reader rule from the storage fuzzing
// pass, applied to the network). Because an in-memory element can be
// larger than its smallest wire form, decoders additionally cap their
// up-front allocation (MaxPrealloc) and reject absurd element counts
// outright (MaxElems), keeping one frame's decode memory proportional
// to the bytes actually decoded and hard-bounded even adversarially.
//
// Nil-ness of slices and maps survives the wire: lengths are encoded
// shifted by one (0 = nil, n+1 = n elements), so a decoded summary is
// reflect.DeepEqual to the encoded one — the property the testkit
// differential oracle compares by.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// growFixed extends b by 8*n bytes in one step (no per-element append
// bookkeeping) and returns the extended slice plus the write offset.
func growFixed(b []byte, n int) ([]byte, int) {
	off := len(b)
	b = slices.Grow(b, 8*n)[:off+8*n]
	return b, off
}

// MaxPrealloc caps the up-front element allocation of any
// variable-size decode. A length prefix bounds the element *count*
// against the bytes remaining, but an in-memory element can be much
// larger than its smallest wire form (a table.Row header is 24 bytes
// against a 1-byte wire minimum), so allocating the declared count up
// front would let a maxFrameSize frame demand gigabytes. Decoders
// preallocate at most this many elements and grow by appending — the
// per-element wire bytes consumed inside the loop then bound memory by
// a small multiple of the bytes actually decoded.
const MaxPrealloc = 4096

// MaxElems hard-caps the declared element count of any wire collection.
// Summaries are display-sized by construction (paper §4.2) — buckets,
// rows, counters, and samples number in the thousands, not millions —
// so a count beyond this is corruption, not data, and rejecting it
// bounds the worst-case decode memory of one frame (the in-memory
// amplification of minimal 1-byte elements is ~40×, so 4M elements
// caps a frame's decode at ~160 MB even in the adversarial case).
const MaxElems = 1 << 22

// PreallocLen clamps a declared element count to the preallocation cap.
func PreallocLen(n int) int {
	if n > MaxPrealloc {
		return MaxPrealloc
	}
	return n
}

// ErrCorrupt reports malformed or truncated wire bytes. Frame decoders
// wrap it so transport code can distinguish corruption from I/O errors.
var ErrCorrupt = errors.New("wire: corrupt data")

// Corruptf builds an ErrCorrupt-wrapping error.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// ConsumeUvarint decodes a uvarint from the front of b.
func ConsumeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, Corruptf("bad uvarint")
	}
	return v, b[n:], nil
}

// AppendVarint appends v zigzag-encoded (small magnitudes of either
// sign stay small).
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// ConsumeVarint decodes a zigzag varint from the front of b.
func ConsumeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, Corruptf("bad varint")
	}
	return v, b[n:], nil
}

// AppendU64 appends a fixed-width little-endian 64-bit word.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// ConsumeU64 decodes a fixed-width little-endian 64-bit word.
func ConsumeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, b, Corruptf("truncated u64")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// AppendI64 appends a fixed-width little-endian int64.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// ConsumeI64 decodes a fixed-width little-endian int64.
func ConsumeI64(b []byte) (int64, []byte, error) {
	v, rest, err := ConsumeU64(b)
	return int64(v), rest, err
}

// AppendF64 appends a float64 by bit pattern, preserving NaN payloads
// and signed zeros exactly.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// ConsumeF64 decodes a float64 by bit pattern.
func ConsumeF64(b []byte) (float64, []byte, error) {
	v, rest, err := ConsumeU64(b)
	return math.Float64frombits(v), rest, err
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ConsumeBool decodes a bool byte (anything nonzero is true).
func ConsumeBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, b, Corruptf("truncated bool")
	}
	return b[0] != 0, b[1:], nil
}

// ConsumeByte decodes one raw byte.
func ConsumeByte(b []byte) (byte, []byte, error) {
	if len(b) < 1 {
		return 0, b, Corruptf("truncated byte")
	}
	return b[0], b[1:], nil
}

// AppendString appends a uvarint length and the string bytes.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ConsumeString decodes a length-prefixed string. The returned string
// is a copy, never an alias of b (frame buffers are pooled).
func ConsumeString(b []byte) (string, []byte, error) {
	n, rest, err := ConsumeUvarint(b)
	if err != nil {
		return "", b, err
	}
	if n > uint64(len(rest)) {
		return "", b, Corruptf("string of %d bytes with %d remaining", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// consumeLen decodes the shifted length prefix shared by every slice
// and map codec: 0 means nil, n+1 means n elements. minElem is the
// smallest possible encoding of one element; the declared count is
// validated against the remaining bytes before the caller allocates.
func consumeLen(b []byte, minElem int) (n int, isNil bool, rest []byte, err error) {
	v, rest, err := ConsumeUvarint(b)
	if err != nil {
		return 0, false, b, err
	}
	if v == 0 {
		return 0, true, rest, nil
	}
	v--
	if v > MaxElems {
		return 0, false, b, Corruptf("%d elements exceeds the %d-element limit", v, MaxElems)
	}
	if v > uint64(len(rest))/uint64(minElem) {
		return 0, false, b, Corruptf("%d elements of at least %d bytes with %d remaining", v, minElem, len(rest))
	}
	return int(v), false, rest, nil
}

// AppendLen appends the shifted length prefix for a slice or map:
// isNil encodes 0, otherwise n+1.
func AppendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return AppendUvarint(b, 0)
	}
	return AppendUvarint(b, uint64(n)+1)
}

// ConsumeLen decodes a shifted length prefix, validating that at least
// n*minElem bytes remain.
func ConsumeLen(b []byte, minElem int) (n int, isNil bool, rest []byte, err error) {
	return consumeLen(b, minElem)
}

// AppendI64s appends an int64 slice: shifted length, then fixed-width
// little-endian words.
func AppendI64s(b []byte, vs []int64) []byte {
	b = AppendLen(b, len(vs), vs == nil)
	b, off := growFixed(b, len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[off+8*i:], uint64(v))
	}
	return b
}

// ConsumeI64s decodes an int64 slice.
func ConsumeI64s(b []byte) ([]int64, []byte, error) {
	n, isNil, rest, err := consumeLen(b, 8)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return out, rest[n*8:], nil
}

// AppendU64s appends a uint64 slice in fixed-width little-endian.
func AppendU64s(b []byte, vs []uint64) []byte {
	b = AppendLen(b, len(vs), vs == nil)
	b, off := growFixed(b, len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[off+8*i:], v)
	}
	return b
}

// ConsumeU64s decodes a uint64 slice.
func ConsumeU64s(b []byte) ([]uint64, []byte, error) {
	n, isNil, rest, err := consumeLen(b, 8)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	return out, rest[n*8:], nil
}

// AppendF64s appends a float64 slice by bit pattern in fixed-width
// little-endian.
func AppendF64s(b []byte, vs []float64) []byte {
	b = AppendLen(b, len(vs), vs == nil)
	b, off := growFixed(b, len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(v))
	}
	return b
}

// ConsumeF64s decodes a float64 slice.
func ConsumeF64s(b []byte) ([]float64, []byte, error) {
	n, isNil, rest, err := consumeLen(b, 8)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return out, rest[n*8:], nil
}

// AppendBytes appends a byte slice with a shifted length prefix.
func AppendBytes(b []byte, vs []byte) []byte {
	b = AppendLen(b, len(vs), vs == nil)
	return append(b, vs...)
}

// ConsumeBytes decodes a byte slice. The result is a copy of the frame
// bytes, never an alias.
func ConsumeBytes(b []byte) ([]byte, []byte, error) {
	n, isNil, rest, err := consumeLen(b, 1)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// AppendStrings appends a string slice.
func AppendStrings(b []byte, vs []string) []byte {
	b = AppendLen(b, len(vs), vs == nil)
	for _, s := range vs {
		b = AppendString(b, s)
	}
	return b
}

// ConsumeStrings decodes a string slice (each element is at least one
// length byte).
func ConsumeStrings(b []byte) ([]string, []byte, error) {
	n, isNil, rest, err := consumeLen(b, 1)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make([]string, 0, PreallocLen(n))
	for i := 0; i < n; i++ {
		var s string
		s, rest, err = ConsumeString(rest)
		if err != nil {
			return nil, b, err
		}
		out = append(out, s)
	}
	return out, rest, nil
}
