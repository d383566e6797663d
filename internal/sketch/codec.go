package sketch

import (
	"reflect"

	"repro/internal/table"
	"repro/internal/wire"
)

// This file is the registry half of the binary wire codec: the cluster
// transport encodes every result and sketch crossing the wire through a
// hand-rolled, stateless, per-type codec instead of reflection-driven
// gob (gob remains only as the fallback envelope for third-party types;
// see internal/cluster). The codec contract:
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
// WireSketch on the sketch type, pick an unused tag, and call
// RegisterResultCodec / RegisterSketchCodec from init (wire.go keeps
// the shipped list). TestWireSketchCodecCoverage fails any sketch in
// WireSketches() whose sketch type or result type lacks a codec,
// mirroring the oracle coverage rule.

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

// DeltaWireResult is an optional WireResult extension for cumulative
// monotone-counter results: successive partial snapshots of one request
// differ only by recently-scanned rows, so a partial can ship just the
// per-bucket increments (zigzag varints: near-zero deltas cost one byte
// instead of eight) and be reconstructed against the previous partial
// on the receiving side.
type DeltaWireResult interface {
	WireResult
	// AppendDeltaWire appends the receiver-minus-prev delta body to b.
	// ok is false when prev is not a compatible base (different type or
	// geometry); the caller must then send a full frame.
	AppendDeltaWire(prev Result, b []byte) ([]byte, bool)
	// DecodeDeltaWire parses a delta body from b into the receiver and
	// adds prev, leaving the receiver equal to the cumulative snapshot.
	// prev is never mutated (the consumer may still hold it).
	DecodeDeltaWire(prev Result, b []byte) ([]byte, error)
}

// Result codec tags. Tag 0 is reserved for the gob fallback at the
// frame layer; tags are wire format and must never be renumbered.
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
	tagCoMoments    = 12
	tagTableMeta    = 13
	tagMultiResult  = 14
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
	tagPCASketch              = 15
	tagMetaSketch             = 16
	tagMultiSketch            = 17
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

// ResultHasCodec reports whether r's concrete type has a registered
// binary codec.
func ResultHasCodec(r Result) bool {
	_, ok := resultTags[reflect.TypeOf(r)]
	return ok
}

// SketchHasCodec reports whether sk's concrete type has a registered
// binary codec.
func SketchHasCodec(sk Sketch) bool {
	_, ok := sketchTags[reflect.TypeOf(sk)]
	return ok
}

// AppendResultWire appends tag+body for a codec-registered result;
// ok=false (b unchanged) tells the transport to fall back to gob.
func AppendResultWire(b []byte, r Result) ([]byte, bool) {
	tag, ok := resultTags[reflect.TypeOf(r)]
	if !ok {
		return b, false
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

// AppendResultDeltaWire appends tag+delta-body for r relative to prev.
// ok=false means no codec, no delta support, or an incompatible base —
// the caller sends a full frame instead.
func AppendResultDeltaWire(b []byte, r, prev Result) ([]byte, bool) {
	tag, ok := resultTags[reflect.TypeOf(r)]
	if !ok {
		return b, false
	}
	d, ok := r.(DeltaWireResult)
	if !ok {
		return b, false
	}
	withTag := append(b, tag)
	out, ok := d.AppendDeltaWire(prev, withTag)
	if !ok {
		return b, false
	}
	return out, true
}

// DecodeResultDeltaWire decodes a tag+delta-body payload against the
// previous cumulative result, returning the reconstructed snapshot.
func DecodeResultDeltaWire(b []byte, prev Result) (Result, []byte, error) {
	tag, rest, err := wire.ConsumeByte(b)
	if err != nil {
		return nil, b, err
	}
	newFn := resultCodecs[tag]
	if newFn == nil {
		return nil, b, wire.Corruptf("unknown result tag %d", tag)
	}
	d, ok := newFn().(DeltaWireResult)
	if !ok {
		return nil, b, wire.Corruptf("result tag %d does not support deltas", tag)
	}
	rest, err = d.DecodeDeltaWire(prev, rest)
	if err != nil {
		return nil, b, err
	}
	return d, rest, nil
}

// AppendSketchWire appends tag+body for a codec-registered sketch;
// ok=false tells the transport to fall back to gob.
func AppendSketchWire(b []byte, sk Sketch) ([]byte, bool) {
	tag, ok := sketchTags[reflect.TypeOf(sk)]
	if !ok {
		return b, false
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
	s.Count = int(count)
	return s, rest, nil
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
