package sketch

import (
	"reflect"

	"repro/internal/table"
	"repro/internal/wire"
)

// This file is the registry half of the binary wire codec: the cluster
// transport encodes every result and sketch crossing the wire through a
// hand-rolled, stateless, per-type codec, and a type without one does
// not cross the wire (see internal/cluster). Each type has one wire
// form: a partial result crosses whole, exactly like a final, and
// decodes without reference to any earlier frame. The codec contract:
//
//   - AppendWire appends the value's binary form to b and returns the
//     extended slice. It never retains b.
//   - DecodeWire parses the receiver's fields from the front of b,
//     returning the remaining bytes. Decoded values must not alias b
//     (frame buffers are pooled and reused); every length read from the
//     wire must be validated against the remaining bytes before
//     allocating (package wire's Consume* helpers do this).
//   - Encode→decode must reproduce the value reflect.DeepEqual-exactly,
//     including nil-versus-empty slice and map distinctions — the
//     testkit differential compares results with DeepEqual, so codec
//     lossiness would read as an engine bug.
//
// Registering a codec: implement WireResult on the result type and
// WireSketch on the sketch type, pick a tag from the tables below that
// no type has used (a retired tag stays retired), and call
// RegisterResultCodec / RegisterSketchCodec from init (wire.go keeps
// the shipped list). TestWireSketchCodecCoverage fails
// any sketch in WireSketches() whose sketch type or result type lacks a
// codec, mirroring the oracle coverage rule.

// WireResult is a Result with a hand-rolled binary codec.
type WireResult interface {
	AppendWire(b []byte) []byte
	DecodeWire(b []byte) ([]byte, error)
}

// WireSketch is a Sketch with a hand-rolled binary codec for its
// configuration fields.
type WireSketch interface {
	Sketch
	AppendWire(b []byte) []byte
	DecodeWire(b []byte) ([]byte, error)
}

// Result codec tags. Tag 0 is reserved (the frame layer uses it for "no
// result"); tags are wire format and must never be renumbered.
const (
	tagHistogram    = 1
	tagHistogram2D  = 2
	tagTrellis      = 3
	tagNextKList    = 4
	tagFindResult   = 5
	tagSampleSet    = 6
	tagHeavyHitters = 7
	tagDataRange    = 8
	tagMoments      = 9
	tagHLL          = 10
	tagBottomKSet   = 11
	// 12 was the PCA co-moments result; retired, never reused.
	tagTableMeta   = 13
	tagMultiResult = 14
	// TagSaveResult is storage.SaveResult, registered by package
	// storage, which the worker links.
	TagSaveResult = 15
)

// Sketch codec tags (a separate tag space from results).
const (
	tagHistogramSketch        = 1
	tagSampledHistogramSketch = 2
	tagCDFSketch              = 3
	tagHistogram2DSketch      = 4
	tagTrellisSketch          = 5
	tagNextKSketch            = 6
	tagFindTextSketch         = 7
	tagQuantileSketch         = 8
	tagMisraGriesSketch       = 9
	tagSampleHHSketch         = 10
	tagRangeSketch            = 11
	tagMomentsSketch          = 12
	tagDistinctCountSketch    = 13
	tagDistinctBottomKSketch  = 14
	// 15 was the PCA sketch; retired, never reused.
	tagMetaSketch  = 16
	tagMultiSketch = 17
	// TagSaveSketch is storage.SaveSketch (see TagSaveResult).
	TagSaveSketch = 18
	// TagTestSketch is for sketches that exist only in tests (testkit's
	// panicking overload sketch); no binary registers it.
	TagTestSketch = 255
)

var (
	resultCodecs [256]func() WireResult
	resultTags   = map[reflect.Type]byte{}
	sketchCodecs [256]func() WireSketch
	sketchTags   = map[reflect.Type]byte{}
)

// RegisterResultCodec registers a result type under a wire tag. newFn
// must return a fresh zero instance ready for DecodeWire.
func RegisterResultCodec(tag byte, newFn func() WireResult) {
	if tag == 0 || resultCodecs[tag] != nil {
		panic("sketch: result codec tag conflict")
	}
	resultCodecs[tag] = newFn
	t := reflect.TypeOf(newFn())
	if _, dup := resultTags[t]; dup {
		panic("sketch: result type registered twice")
	}
	resultTags[t] = tag
}

// RegisterSketchCodec registers a sketch type under a wire tag.
func RegisterSketchCodec(tag byte, newFn func() WireSketch) {
	if tag == 0 || sketchCodecs[tag] != nil {
		panic("sketch: sketch codec tag conflict")
	}
	sketchCodecs[tag] = newFn
	t := reflect.TypeOf(newFn())
	if _, dup := sketchTags[t]; dup {
		panic("sketch: sketch type registered twice")
	}
	sketchTags[t] = tag
}

// AppendResultWire appends tag+body for a codec-registered result;
// ok=false (b unchanged) means r, or a member of a MultiResult, has no
// codec and cannot cross the wire.
func AppendResultWire(b []byte, r Result) ([]byte, bool) {
	tag, ok := resultTags[reflect.TypeOf(r)]
	if !ok {
		return b, false
	}
	if multi, isMulti := r.(*MultiResult); isMulti {
		for _, m := range multi.Members {
			if _, ok := resultTags[reflect.TypeOf(m)]; !ok {
				return b, false
			}
		}
	}
	b = append(b, tag)
	return r.(WireResult).AppendWire(b), true
}

// DecodeResultWire decodes a tag+body result payload.
func DecodeResultWire(b []byte) (Result, []byte, error) {
	tag, rest, err := wire.ConsumeByte(b)
	if err != nil {
		return nil, b, err
	}
	newFn := resultCodecs[tag]
	if newFn == nil {
		return nil, b, wire.Corruptf("unknown result tag %d", tag)
	}
	r := newFn()
	rest, err = r.DecodeWire(rest)
	if err != nil {
		return nil, b, err
	}
	return r, rest, nil
}

// AppendSketchWire appends tag+body for a codec-registered sketch;
// ok=false (b unchanged) means sk, or a member of a MultiSketch, has no
// codec and cannot cross the wire.
func AppendSketchWire(b []byte, sk Sketch) ([]byte, bool) {
	tag, ok := sketchTags[reflect.TypeOf(sk)]
	if !ok {
		return b, false
	}
	if multi, isMulti := sk.(*MultiSketch); isMulti {
		for _, m := range multi.Sketches {
			if _, ok := sketchTags[reflect.TypeOf(m)]; !ok {
				return b, false
			}
		}
	}
	b = append(b, tag)
	return sk.(WireSketch).AppendWire(b), true
}

// DecodeSketchWire decodes a tag+body sketch payload.
func DecodeSketchWire(b []byte) (Sketch, []byte, error) {
	tag, rest, err := wire.ConsumeByte(b)
	if err != nil {
		return nil, b, err
	}
	newFn := sketchCodecs[tag]
	if newFn == nil {
		return nil, b, wire.Corruptf("unknown sketch tag %d", tag)
	}
	sk := newFn()
	rest, err = sk.DecodeWire(rest)
	if err != nil {
		return nil, b, err
	}
	return sk, rest, nil
}

// --- shared field codecs -------------------------------------------------

// valueMissingBit marks a missing Value in its fused kind byte; the
// low seven bits carry the table.Kind. Missing values have no payload.
const valueMissingBit = 0x80

// appendValue encodes one table.Value: a fused kind+missing byte, then
// the kind's payload. Values are the per-element hot path of next-K
// rows and heavy-hitter counters, so the encoding is branch-lean.
func appendValue(b []byte, v table.Value) []byte {
	k := byte(v.Kind)
	if v.Missing {
		return append(b, k|valueMissingBit)
	}
	b = append(b, k)
	switch v.Kind {
	case table.KindInt, table.KindDate:
		return wire.AppendI64(b, v.I)
	case table.KindDouble:
		return wire.AppendF64(b, v.D)
	case table.KindString:
		return wire.AppendString(b, v.S)
	default:
		return b
	}
}

func consumeValue(b []byte) (table.Value, []byte, error) {
	var v table.Value
	if len(b) < 1 {
		return v, b, wire.Corruptf("truncated value")
	}
	k := b[0]
	b = b[1:]
	v.Kind = table.Kind(k &^ valueMissingBit)
	if k&valueMissingBit != 0 {
		v.Missing = true
		return v, b, nil
	}
	var err error
	switch v.Kind {
	case table.KindInt, table.KindDate:
		v.I, b, err = wire.ConsumeI64(b)
	case table.KindDouble:
		v.D, b, err = wire.ConsumeF64(b)
	case table.KindString:
		v.S, b, err = wire.ConsumeString(b)
	}
	return v, b, err
}

// minValueBytes is the smallest encoding of one Value (the fused byte).
const minValueBytes = 1

func appendRow(b []byte, r table.Row) []byte {
	b = wire.AppendLen(b, len(r), r == nil)
	for _, v := range r {
		b = appendValue(b, v)
	}
	return b
}

func consumeRow(b []byte) (table.Row, []byte, error) {
	n, isNil, rest, err := wire.ConsumeLen(b, minValueBytes)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make(table.Row, 0, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		var v table.Value
		v, rest, err = consumeValue(rest)
		if err != nil {
			return nil, b, err
		}
		out = append(out, v)
	}
	return out, rest, nil
}

func appendOrder(b []byte, o table.RecordOrder) []byte {
	b = wire.AppendLen(b, len(o), o == nil)
	for _, c := range o {
		b = wire.AppendString(b, c.Column)
		b = wire.AppendBool(b, c.Ascending)
	}
	return b
}

func consumeOrder(b []byte) (table.RecordOrder, []byte, error) {
	n, isNil, rest, err := wire.ConsumeLen(b, 2)
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make(table.RecordOrder, 0, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		var c table.ColumnSortOrder
		c.Column, rest, err = wire.ConsumeString(rest)
		if err != nil {
			return nil, b, err
		}
		c.Ascending, rest, err = wire.ConsumeBool(rest)
		if err != nil {
			return nil, b, err
		}
		out = append(out, c)
	}
	return out, rest, nil
}

func appendBucketSpec(b []byte, s BucketSpec) []byte {
	b = append(b, byte(s.Kind))
	b = wire.AppendF64(b, s.Min)
	b = wire.AppendF64(b, s.Max)
	b = wire.AppendStrings(b, s.Bounds)
	b = wire.AppendBool(b, s.ExactValues)
	return wire.AppendVarint(b, int64(s.Count))
}

func consumeBucketSpec(b []byte) (BucketSpec, []byte, error) {
	var s BucketSpec
	k, rest, err := wire.ConsumeByte(b)
	if err != nil {
		return s, b, err
	}
	s.Kind = table.Kind(k)
	if s.Min, rest, err = wire.ConsumeF64(rest); err != nil {
		return s, b, err
	}
	if s.Max, rest, err = wire.ConsumeF64(rest); err != nil {
		return s, b, err
	}
	if s.Bounds, rest, err = wire.ConsumeStrings(rest); err != nil {
		return s, b, err
	}
	if s.ExactValues, rest, err = wire.ConsumeBool(rest); err != nil {
		return s, b, err
	}
	var count int64
	if count, rest, err = wire.ConsumeVarint(rest); err != nil {
		return s, b, err
	}
	// Zero allocates Count counters: a negative count would panic there
	// and a huge one is an out-of-memory no recover catches.
	if count < 0 || count > wire.MaxElems {
		return s, b, wire.Corruptf("bucket count %d outside [0, %d]", count, wire.MaxElems)
	}
	s.Count = int(count)
	return s, rest, nil
}

// checkCells rejects decoded bucket geometry whose grid — the product of
// the axes' bucket counts, each at least 1, which bounds what Zero
// allocates — exceeds wire.MaxElems cells.
func checkCells(axes ...BucketSpec) error {
	cells := 1
	for _, a := range axes {
		cells *= max(a.Count, 1) // each count ≤ MaxElems: no overflow
		if cells > wire.MaxElems {
			return wire.Corruptf("bucket grid of more than %d cells", wire.MaxElems)
		}
	}
	return nil
}

func appendSchema(b []byte, s *table.Schema) []byte {
	b = wire.AppendBool(b, s != nil)
	if s == nil {
		return b
	}
	b = wire.AppendLen(b, len(s.Columns), s.Columns == nil)
	for _, c := range s.Columns {
		b = wire.AppendString(b, c.Name)
		b = append(b, byte(c.Kind))
	}
	return b
}

func consumeSchema(b []byte) (*table.Schema, []byte, error) {
	present, rest, err := wire.ConsumeBool(b)
	if err != nil || !present {
		return nil, rest, err
	}
	n, isNil, rest, err := wire.ConsumeLen(rest, 2)
	if err != nil {
		return nil, b, err
	}
	if isNil {
		return &table.Schema{}, rest, nil
	}
	cols := make([]table.ColumnDesc, 0, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		var cd table.ColumnDesc
		cd.Name, rest, err = wire.ConsumeString(rest)
		if err != nil {
			return nil, b, err
		}
		var k byte
		k, rest, err = wire.ConsumeByte(rest)
		if err != nil {
			return nil, b, err
		}
		cd.Kind = table.Kind(k)
		cols = append(cols, cd)
	}
	return &table.Schema{Columns: cols}, rest, nil
}
