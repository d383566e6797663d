package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<62)
	b = AppendVarint(b, -5)
	b = AppendI64(b, math.MinInt64)
	b = AppendF64(b, math.Copysign(0, -1))
	b = AppendF64(b, math.NaN())
	b = AppendBool(b, true)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")

	u0, b2, err := ConsumeUvarint(b)
	if err != nil || u0 != 0 {
		t.Fatalf("uvarint 0: %v %v", u0, err)
	}
	u1, b2, err := ConsumeUvarint(b2)
	if err != nil || u1 != 1<<62 {
		t.Fatalf("uvarint big: %v %v", u1, err)
	}
	v, b2, err := ConsumeVarint(b2)
	if err != nil || v != -5 {
		t.Fatalf("varint: %v %v", v, err)
	}
	i, b2, err := ConsumeI64(b2)
	if err != nil || i != math.MinInt64 {
		t.Fatalf("i64: %v %v", i, err)
	}
	f, b2, err := ConsumeF64(b2)
	if err != nil || math.Float64bits(f) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("-0: %v %v", f, err)
	}
	nan, b2, err := ConsumeF64(b2)
	if err != nil || !math.IsNaN(nan) {
		t.Fatalf("nan: %v %v", nan, err)
	}
	bo, b2, err := ConsumeBool(b2)
	if err != nil || !bo {
		t.Fatalf("bool: %v %v", bo, err)
	}
	s, b2, err := ConsumeString(b2)
	if err != nil || s != "héllo" {
		t.Fatalf("string: %q %v", s, err)
	}
	s2, b2, err := ConsumeString(b2)
	if err != nil || s2 != "" {
		t.Fatalf("empty string: %q %v", s2, err)
	}
	if len(b2) != 0 {
		t.Fatalf("%d trailing bytes", len(b2))
	}
}

func TestSliceRoundTripPreservesNil(t *testing.T) {
	cases := [][]int64{nil, {}, {1, -2, 3}}
	for _, c := range cases {
		got, rest, err := ConsumeI64s(AppendI64s(nil, c))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, c) {
			t.Fatalf("i64s %v: got %v rest %d err %v", c, got, len(rest), err)
		}
	}
	for _, c := range [][]string{nil, {}, {"", "a", "bb"}} {
		got, rest, err := ConsumeStrings(AppendStrings(nil, c))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, c) {
			t.Fatalf("strings %v: got %v err %v", c, got, err)
		}
	}
	for _, c := range [][]byte{nil, {}, {0, 255}} {
		got, rest, err := ConsumeBytes(AppendBytes(nil, c))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, c) {
			t.Fatalf("bytes %v: got %v err %v", c, got, err)
		}
	}
	for _, c := range [][]float64{nil, {}, {1.5, math.Inf(1)}} {
		got, rest, err := ConsumeF64s(AppendF64s(nil, c))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, c) {
			t.Fatalf("f64s %v: got %v err %v", c, got, err)
		}
	}
	for _, c := range [][]uint64{nil, {}, {0, math.MaxUint64}} {
		got, rest, err := ConsumeU64s(AppendU64s(nil, c))
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, c) {
			t.Fatalf("u64s %v: got %v err %v", c, got, err)
		}
	}
}

// TestCraftedLengthRejected is the OOM guard: a length prefix claiming
// vastly more elements than the remaining bytes must fail with
// ErrCorrupt before any allocation happens.
func TestCraftedLengthRejected(t *testing.T) {
	huge := AppendUvarint(nil, 1<<50) // declared length with no payload
	if _, _, err := ConsumeI64s(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("i64s: want ErrCorrupt, got %v", err)
	}
	if _, _, err := ConsumeStrings(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strings: want ErrCorrupt, got %v", err)
	}
	if _, _, err := ConsumeBytes(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bytes: want ErrCorrupt, got %v", err)
	}
	if _, _, err := ConsumeString(huge[1:]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("string: want ErrCorrupt, got %v", err)
	}
	// Truncated fixed-width words.
	if _, _, err := ConsumeU64([]byte{1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("u64: want ErrCorrupt, got %v", err)
	}
	if _, _, err := ConsumeBool(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bool: want ErrCorrupt, got %v", err)
	}
}
