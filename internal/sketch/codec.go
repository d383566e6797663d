package sketch

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"

	"repro/internal/table"
	"repro/internal/wire"
)

// This file is the binary wire codec: the cluster transport encodes
// every sketch and result crossing the wire here, and a type without a
// tag does not cross it (see internal/cluster). A registered type is a
// pointer to a struct, and its wire form is its exported fields in
// declaration order, each by the rule for its kind:
//
//   - bool and uint8 kinds (table.Kind, MatchKind, a precision) are one
//     byte;
//   - int is a zigzag varint;
//   - int64, uint64 and float64 are 8 bytes little-endian, floats by
//     bit pattern;
//   - string is a uvarint length followed by the bytes;
//   - a slice or map starts with its length shifted by one (0 means nil,
//     n+1 means n elements), then the elements;
//   - a pointer is a present bool followed by the pointee;
//   - a struct is its fields in declaration order;
//   - a Sketch or Result element (a member of MultiSketch or
//     MultiResult) is true followed by the member's tag and body.
//
// Two table types have their own forms. A table.Value is a fused
// kind|missing byte, then the kind's payload. A map[table.Value]int64
// (heavy-hitter counters) is sorted by encoded value bytes, then count,
// with each count a varint, so equal results encode to equal frames.
//
// Field order is therefore wire format: append new fields at the end,
// never reorder. Each frame decodes without reference to any earlier
// one, and encode→decode reproduces a value reflect.DeepEqual-exactly,
// nil versus empty included: the testkit differential compares results
// with DeepEqual, so codec lossiness would read as an engine bug.
// Decoding checks every length prefix against the bytes remaining
// before it allocates, never aliases the frame buffer (frame buffers
// are pooled and reused), and applies checkDecoded.
//
// Registering a type: pick a tag from the tables below that no type has
// used (a retired tag stays retired). A shipped sketch is one
// wireSketches entry (wire.go) naming the tag and a prototype; a result
// is one RegisterResult call. Registration
// panics on a field the codec does not encode, an unexported one
// included. TestWireCodecCoverage fails any sketch in WireSketches()
// whose sketch type or result type has no tag.

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
	// Tag 1's body is Col, Buckets, Rate, Seed: bars and CDF, exact and
	// sampled, are one type.
	tagHistogramSketch = 1
	// 2 and 3 were the sampled-histogram and CDF sketches; retired,
	// never reused.
	tagHistogram2DSketch     = 4
	tagTrellisSketch         = 5
	tagNextKSketch           = 6
	tagFindTextSketch        = 7
	tagQuantileSketch        = 8
	tagMisraGriesSketch      = 9
	tagSampleHHSketch        = 10
	tagRangeSketch           = 11
	tagMomentsSketch         = 12
	tagDistinctCountSketch   = 13
	tagDistinctBottomKSketch = 14
	// 15 was the PCA sketch; retired, never reused.
	tagMetaSketch  = 16
	tagMultiSketch = 17
	// TagSaveSketch is storage.SaveSketch (see TagSaveResult).
	TagSaveSketch = 18
	// TagTestSketch is for sketches that exist only in tests (testkit's
	// panicking overload sketch); no binary registers it.
	TagTestSketch = 255
)

func init() {
	for _, w := range wireSketches {
		RegisterSketch(w.tag, w.proto)
	}

	RegisterResult(tagHistogram, &Histogram{})
	RegisterResult(tagHistogram2D, &Histogram2D{})
	RegisterResult(tagTrellis, &Trellis{})
	RegisterResult(tagNextKList, &NextKList{})
	RegisterResult(tagFindResult, &FindResult{})
	RegisterResult(tagSampleSet, &SampleSet{})
	RegisterResult(tagHeavyHitters, &HeavyHitters{})
	RegisterResult(tagDataRange, &DataRange{})
	RegisterResult(tagMoments, &Moments{})
	RegisterResult(tagHLL, &HLL{})
	RegisterResult(tagBottomKSet, &BottomKSet{})
	RegisterResult(tagTableMeta, &TableMeta{})
	RegisterResult(tagMultiResult, &MultiResult{})
}

// registry is one tag space: tag → registered pointer type and back.
type registry struct {
	what string
	// multi is the tag of the type whose members are this registry's
	// values: a member carrying it is a nested multi, which decoding
	// refuses (it mirrors NewMultiSketch and bounds decode recursion).
	multi byte
	types [256]reflect.Type
	tags  map[reflect.Type]byte
}

var (
	sketchReg = registry{what: "sketch", multi: tagMultiSketch, tags: map[reflect.Type]byte{}}
	resultReg = registry{what: "result", multi: tagMultiResult, tags: map[reflect.Type]byte{}}
)

// RegisterSketch registers proto's type, a pointer to a struct, under a
// sketch tag.
func RegisterSketch(tag byte, proto Sketch) { sketchReg.register(tag, proto) }

// RegisterResult registers proto's type, a pointer to a struct, under a
// result tag.
func RegisterResult(tag byte, proto Result) { resultReg.register(tag, proto) }

func (r *registry) register(tag byte, proto any) {
	t := reflect.TypeOf(proto)
	if tag == 0 || r.types[tag] != nil {
		panic(fmt.Sprintf("sketch: %s tag %d registered twice", r.what, tag))
	}
	if _, dup := r.tags[t]; dup {
		panic(fmt.Sprintf("sketch: %s type %v registered twice", r.what, t))
	}
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("sketch: %s type %v is not a pointer to a struct", r.what, t))
	}
	checkWireType(t.Elem(), t.Elem().String())
	r.types[tag] = t
	r.tags[t] = tag
}

// append appends tag+body for v; ok=false (b unchanged) means v, or a
// member of it, has no tag.
func (r *registry) append(b []byte, v any) ([]byte, bool) {
	tag, ok := r.tags[reflect.TypeOf(v)]
	if !ok || reflect.ValueOf(v).IsNil() {
		return b, false
	}
	out, ok := appendField(append(b, tag), reflect.ValueOf(v).Elem())
	if !ok {
		return b, false
	}
	return out, true
}

// decode decodes a tag+body payload into a fresh value.
func (r *registry) decode(b []byte) (any, []byte, error) {
	tag, rest, err := wire.ConsumeByte(b)
	if err != nil {
		return nil, b, err
	}
	t := r.types[tag]
	if t == nil {
		return nil, b, wire.Corruptf("unknown %s tag %d", r.what, tag)
	}
	p := reflect.New(t.Elem())
	if rest, err = decodeField(rest, p.Elem()); err != nil {
		return nil, b, err
	}
	return p.Interface(), rest, nil
}

// AppendResultWire appends tag+body for a registered result; ok=false
// (b unchanged) means r, or a member of a MultiResult, has no tag and
// cannot cross the wire.
func AppendResultWire(b []byte, r Result) ([]byte, bool) { return resultReg.append(b, r) }

// DecodeResultWire decodes a tag+body result payload.
func DecodeResultWire(b []byte) (Result, []byte, error) { return resultReg.decode(b) }

// AppendSketchWire appends tag+body for a registered sketch; ok=false
// (b unchanged) means sk, or a member of a MultiSketch, has no tag and
// cannot cross the wire.
func AppendSketchWire(b []byte, sk Sketch) ([]byte, bool) { return sketchReg.append(b, sk) }

// DecodeSketchWire decodes a tag+body sketch payload.
func DecodeSketchWire(b []byte) (Sketch, []byte, error) {
	v, rest, err := sketchReg.decode(b)
	if err != nil {
		return nil, b, err
	}
	return v.(Sketch), rest, nil
}

// --- the field walk ------------------------------------------------------

// appendField appends v's wire form. ok=false means v holds a member
// whose type has no tag. Slices of bytes, fixed-width words and strings
// go through package wire's slice helpers, and table.Row through
// appendRow: each writes the element rule's bytes without a reflective
// step per element. The walk starts at a registered pointer's pointee,
// so every value it reaches is addressable; taking a field by its
// address keeps it out of an interface box, and an encode into a
// pooled frame allocates nothing.
func appendField(b []byte, v reflect.Value) ([]byte, bool) {
	ok := true
	switch v.Kind() {
	case reflect.Bool:
		return wire.AppendBool(b, v.Bool()), true
	case reflect.Uint8:
		return append(b, byte(v.Uint())), true
	case reflect.Int:
		return wire.AppendVarint(b, v.Int()), true
	case reflect.Int64:
		return wire.AppendI64(b, v.Int()), true
	case reflect.Uint64:
		return wire.AppendU64(b, v.Uint()), true
	case reflect.Float64:
		return wire.AppendF64(b, v.Float()), true
	case reflect.String:
		return wire.AppendString(b, v.String()), true
	case reflect.Pointer:
		b = wire.AppendBool(b, !v.IsNil())
		if !v.IsNil() {
			b, ok = appendField(b, v.Elem())
		}
	case reflect.Struct:
		if x, isValue := v.Addr().Interface().(*table.Value); isValue {
			return appendValue(b, *x), true
		}
		for i := 0; i < v.NumField() && ok; i++ {
			b, ok = appendField(b, v.Field(i))
		}
	case reflect.Map: // checkWireType admits only heavy-hitter counters
		return appendCounters(b, v.Interface().(map[table.Value]int64)), true
	case reflect.Slice:
		switch x := v.Addr().Interface().(type) {
		case *[]byte:
			return wire.AppendBytes(b, *x), true
		case *[]int64:
			return wire.AppendI64s(b, *x), true
		case *[]uint64:
			return wire.AppendU64s(b, *x), true
		case *[]float64:
			return wire.AppendF64s(b, *x), true
		case *[]string:
			return wire.AppendStrings(b, *x), true
		case *table.Row:
			return appendRow(b, *x), true
		}
		b = wire.AppendLen(b, v.Len(), v.IsNil())
		for i := 0; i < v.Len() && ok; i++ {
			b, ok = appendField(b, v.Index(i))
		}
	case reflect.Interface:
		if v.IsNil() {
			return b, false
		}
		b, ok = registryOf(v.Type()).append(wire.AppendBool(b, true), v.Elem().Interface())
	default:
		panic(fmt.Sprintf("sketch: no wire rule for %v", v.Type()))
	}
	return b, ok
}

// decodeField decodes v's wire form into v, which is addressable and
// zero.
func decodeField(b []byte, v reflect.Value) ([]byte, error) {
	var err error
	switch v.Kind() {
	case reflect.Bool:
		var x bool
		x, b, err = wire.ConsumeBool(b)
		v.SetBool(x)
	case reflect.Uint8:
		var x byte
		x, b, err = wire.ConsumeByte(b)
		v.SetUint(uint64(x))
	case reflect.Int:
		var x int64
		x, b, err = wire.ConsumeVarint(b)
		v.SetInt(x)
	case reflect.Int64:
		var x int64
		x, b, err = wire.ConsumeI64(b)
		v.SetInt(x)
	case reflect.Uint64:
		var x uint64
		x, b, err = wire.ConsumeU64(b)
		v.SetUint(x)
	case reflect.Float64:
		var x float64
		x, b, err = wire.ConsumeF64(b)
		v.SetFloat(x)
	case reflect.String:
		var x string
		x, b, err = wire.ConsumeString(b)
		v.SetString(x)
	case reflect.Pointer:
		var present bool
		if present, b, err = wire.ConsumeBool(b); err == nil && present {
			p := reflect.New(v.Type().Elem())
			b, err = decodeField(b, p.Elem())
			v.Set(p)
		}
	case reflect.Struct:
		if x, isValue := v.Addr().Interface().(*table.Value); isValue {
			return consumeInto(b, x, consumeValue)
		}
		for i := 0; i < v.NumField() && err == nil; i++ {
			b, err = decodeField(b, v.Field(i))
		}
		if err == nil {
			err = checkDecoded(v.Addr().Interface())
		}
	case reflect.Map:
		return consumeInto(b, v.Addr().Interface().(*map[table.Value]int64), consumeCounters)
	case reflect.Slice:
		b, err = decodeSlice(b, v)
	case reflect.Interface:
		b, err = decodeMember(b, v)
	default:
		panic(fmt.Sprintf("sketch: no wire rule for %v", v.Type()))
	}
	return b, err
}

// consumeInto runs one wire decoder and stores its value in *dst.
func consumeInto[T any](b []byte, dst *T, consume func([]byte) (T, []byte, error)) ([]byte, error) {
	x, rest, err := consume(b)
	if err != nil {
		return b, err
	}
	*dst = x
	return rest, nil
}

// decodeSlice mirrors appendField's slice case. Element by element, it
// preallocates at most wire.PreallocLen elements and grows by appending,
// so memory stays proportional to the bytes actually decoded.
func decodeSlice(b []byte, v reflect.Value) ([]byte, error) {
	switch x := v.Addr().Interface().(type) {
	case *[]byte:
		return consumeInto(b, x, wire.ConsumeBytes)
	case *[]int64:
		return consumeInto(b, x, wire.ConsumeI64s)
	case *[]uint64:
		return consumeInto(b, x, wire.ConsumeU64s)
	case *[]float64:
		return consumeInto(b, x, wire.ConsumeF64s)
	case *[]string:
		return consumeInto(b, x, wire.ConsumeStrings)
	case *table.Row:
		return consumeInto(b, x, consumeRow)
	}
	elem := v.Type().Elem()
	n, isNil, rest, err := wire.ConsumeLen(b, minWireSize(elem))
	if err != nil || isNil {
		return rest, err
	}
	if n == 0 {
		v.Set(reflect.MakeSlice(v.Type(), 0, 0)) // empty, not nil
	}
	v.Grow(wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		v.Grow(1)
		v.SetLen(i + 1)
		if rest, err = decodeField(rest, v.Index(i)); err != nil {
			return b, err
		}
	}
	return rest, nil
}

// decodeMember decodes a Multi member slot into v: the slot's bool must
// be true, and the member must not be a multi itself.
func decodeMember(b []byte, v reflect.Value) ([]byte, error) {
	present, rest, err := wire.ConsumeBool(b)
	if err != nil {
		return b, err
	}
	if !present {
		return b, wire.Corruptf("member slot is not marked present")
	}
	reg := registryOf(v.Type())
	if len(rest) > 0 && rest[0] == reg.multi {
		return b, wire.Corruptf("nested multi %s", reg.what)
	}
	m, rest, err := reg.decode(rest)
	if err != nil {
		return b, err
	}
	v.Set(reflect.ValueOf(m))
	return rest, nil
}

func registryOf(iface reflect.Type) *registry {
	if iface == reflect.TypeFor[Sketch]() {
		return &sketchReg
	}
	return &resultReg
}

// minWireSize is the smallest encoding of a t; a length prefix is
// checked against it before anything is allocated.
func minWireSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Int64, reflect.Uint64, reflect.Float64:
		return 8
	case reflect.Interface:
		return 2 // the slot's bool and the tag
	case reflect.Struct:
		if t == reflect.TypeFor[table.Value]() {
			return 1 // the fused kind byte
		}
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += minWireSize(t.Field(i).Type)
		}
		return n
	}
	return 1
}

// checkWireType panics unless every field reachable from t has a wire
// rule; path names the field for the message.
func checkWireType(t reflect.Type, path string) {
	switch t {
	case reflect.TypeFor[table.Value](), reflect.TypeFor[map[table.Value]int64]():
		return
	}
	switch t.Kind() {
	case reflect.Bool, reflect.Uint8, reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64, reflect.String:
	case reflect.Pointer:
		checkWireType(t.Elem(), path)
	case reflect.Slice:
		if minWireSize(t.Elem()) == 0 {
			panic(fmt.Sprintf("sketch: wire type %s: a slice of %v has no length bound", path, t.Elem()))
		}
		checkWireType(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("sketch: wire type %s has unexported field %s", path, f.Name))
			}
			checkWireType(f.Type, path+"."+f.Name)
		}
	case reflect.Interface:
		if t != reflect.TypeFor[Sketch]() && t != reflect.TypeFor[Result]() {
			panic(fmt.Sprintf("sketch: wire type %s: interface %v is neither Sketch nor Result", path, t))
		}
	default:
		panic(fmt.Sprintf("sketch: wire type %s: the codec does not encode %v", path, t))
	}
}

// --- decode checks ---------------------------------------------------------

// checkDecoded applies the checks the field rules cannot state to a
// decoded struct p. Each guards an allocation or an index that a worker
// would make from the value.
func checkDecoded(p any) error {
	switch s := p.(type) {
	case *BucketSpec:
		// Zero allocates Count counters: a negative count would panic
		// there and a huge one is an out-of-memory no recover catches.
		if s.Count < 0 || s.Count > wire.MaxElems {
			return wire.Corruptf("bucket count %d outside [0, %d]", s.Count, wire.MaxElems)
		}
		// A string bucket's slot comes from its bound (IndexString), so
		// a count other than len(Bounds) indexes past the tallies.
		if s.Kind == table.KindString && s.Count != len(s.Bounds) {
			return wire.Corruptf("string bucket count %d with %d bounds", s.Count, len(s.Bounds))
		}
	case *Histogram2DSketch:
		return checkCells(s.X, s.Y)
	case *TrellisSketch:
		return checkTrellis(s)
	case *NextKSketch:
		return wireCursor(s.Order, s.From)
	case *FindTextSketch:
		return wireCursor(s.Order, s.From)
	}
	return nil
}

// checkCells rejects decoded bucket geometry whose slot matrix — the
// product of Count+2 over the axes, group axis included, which is what
// gridScan allocates and bounds what a heat map's Zero does — exceeds
// wire.MaxElems cells.
func checkCells(axes ...BucketSpec) error {
	cells := 1
	for _, a := range axes {
		cells *= a.Count + 2 // each count ≤ MaxElems: no overflow
		if cells > wire.MaxElems {
			return wire.Corruptf("bucket grid of more than %d cells", wire.MaxElems)
		}
	}
	return nil
}

// plotWords is the size in 8-byte words of one trellis plot's
// Histogram2D struct plus its pointer in Trellis.Plots.
var plotWords = int(reflect.TypeFor[Histogram2D]().Size()/8) + 1

// checkTrellis rejects a trellis whose scan allocation exceeds
// wire.MaxElems words: the slot matrix checkCells bounds, plus the one
// Histogram2D per group that Zero, Summarize and Merge build (its
// struct, Counts and YOther).
func checkTrellis(s *TrellisSketch) error {
	if err := checkCells(s.Group, s.X, s.Y); err != nil {
		return err
	}
	// Each product is below the slot matrix, or MaxElems·plotWords: no
	// overflow.
	g, x := s.Group.Count, s.X.Count
	words := (g+2)*(x+2)*(s.Y.Count+2) + g*x*s.Y.Count + g*x + g*plotWords
	if words > wire.MaxElems {
		return wire.Corruptf("trellis of %d groups allocates more than %d words", g, wire.MaxElems)
	}
	return nil
}

// wireCursor rejects a decoded From cursor its order cannot index (see
// checkCursor) as corrupt wire data, before any worker scans with it.
func wireCursor(order table.RecordOrder, from table.Row) error {
	if err := checkCursor(order, from); err != nil {
		return wire.Corruptf("%v", err)
	}
	return nil
}

// --- table values ----------------------------------------------------------

// valueMissingBit marks a missing Value in its fused kind byte; the
// low seven bits carry the table.Kind. Missing values have no payload.
const valueMissingBit = 0x80

// appendValue encodes one table.Value: a fused kind+missing byte, then
// the kind's payload.
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

func appendRow(b []byte, r table.Row) []byte {
	b = wire.AppendLen(b, len(r), r == nil)
	for _, v := range r {
		b = appendValue(b, v)
	}
	return b
}

func consumeRow(b []byte) (table.Row, []byte, error) {
	n, isNil, rest, err := wire.ConsumeLen(b, 1) // a kind byte
	if err != nil || isNil {
		return nil, rest, err
	}
	out := make(table.Row, 0, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		var v table.Value
		if v, rest, err = consumeValue(rest); err != nil {
			return nil, b, err
		}
		out = append(out, v)
	}
	return out, rest, nil
}

// appendCounters encodes heavy-hitter counters sorted by their encoded
// value bytes (then count), not in map order, so equal results encode
// to equal frames. The order is on bytes, not Value.Compare, which is
// not an order when NaN is among the values.
func appendCounters(b []byte, m map[table.Value]int64) []byte {
	b = wire.AppendLen(b, len(m), m == nil)
	type counter struct {
		value []byte
		count int64
	}
	counters := make([]counter, 0, len(m))
	var values []byte
	for v, c := range m {
		n := len(values)
		values = appendValue(values, v)
		counters = append(counters, counter{values[n:len(values):len(values)], c})
	}
	slices.SortFunc(counters, func(x, y counter) int {
		if c := bytes.Compare(x.value, y.value); c != 0 {
			return c
		}
		return cmp.Compare(x.count, y.count)
	})
	for _, c := range counters {
		b = append(b, c.value...)
		b = wire.AppendVarint(b, c.count)
	}
	return b
}

func consumeCounters(b []byte) (map[table.Value]int64, []byte, error) {
	n, isNil, rest, err := wire.ConsumeLen(b, 2) // a kind byte and a varint
	if err != nil || isNil {
		return nil, rest, err
	}
	m := make(map[table.Value]int64, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		var v table.Value
		if v, rest, err = consumeValue(rest); err != nil {
			return nil, b, err
		}
		var c int64
		if c, rest, err = wire.ConsumeVarint(rest); err != nil {
			return nil, b, err
		}
		m[v] = c
	}
	return m, rest, nil
}
