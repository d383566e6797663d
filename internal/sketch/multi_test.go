package sketch

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/table"
	"repro/internal/wire"
)

func multiTestParts(t *testing.T) ([]*table.Table, table.GenInfo) {
	t.Helper()
	parts, info := table.GenPartitions("multi", 3, 1100, 3)
	return parts, info
}

// TestMultiSketchValidation pins the constructor contract: no empty
// batches, no nil members, no nesting — and nothing else: a MetaSketch,
// which counts Summarize calls, is a member like any other.
func TestMultiSketchValidation(t *testing.T) {
	if _, err := NewMultiSketch(); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := NewMultiSketch(&MetaSketch{}, &RangeSketch{Col: "gd"}); err != nil {
		t.Errorf("MetaSketch member rejected: %v", err)
	}
	inner, err := NewMultiSketch(&RangeSketch{Col: "gd"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMultiSketch(inner); err == nil {
		t.Error("nested MultiSketch accepted")
	}
	if _, err := NewMultiSketch(&RangeSketch{Col: "gd"}, nil); err == nil {
		t.Error("nil member accepted")
	}
}

// TestMultiSketchColumns pins the column-union contract: the union of
// declared member columns, deduplicated by SketchColumns; nil — all
// columns — as soon as any member does not declare.
func TestMultiSketchColumns(t *testing.T) {
	b := NumericBuckets(table.KindDouble, 0, 1, 4)
	ms := mustMulti(
		&HistogramSketch{Col: "gd", Buckets: b},
		&RangeSketch{Col: "gd"},
		&RangeSketch{Col: "gi"},
	)
	got := SketchColumns(ms)
	if !reflect.DeepEqual(got, []string{"gd", "gi"}) {
		t.Errorf("union columns = %v, want [gd gi]", got)
	}

	// undeclaredSketch carries no ColumnUser: the batch must fall back
	// to "all columns".
	ms2 := mustMulti(&HistogramSketch{Col: "gd", Buckets: b}, undeclaredSketch{})
	if got := SketchColumns(ms2); got != nil {
		t.Errorf("union with undeclared member = %v, want nil", got)
	}
}

// undeclaredSketch is a minimal sketch without ColumnUser.
type undeclaredSketch struct{}

func (undeclaredSketch) Name() string { return "undeclared" }
func (undeclaredSketch) Zero() Result { return int64(0) }
func (undeclaredSketch) Merge(a, b Result) (Result, error) {
	return a.(int64) + b.(int64), nil
}
func (undeclaredSketch) Summarize(t *table.Table) (Result, error) {
	return int64(t.NumRows()), nil
}

// TestMultiSketchMemberIdentity is the core batching property at the
// sketch layer: reference-folding a MultiSketch yields, member by
// member, exactly the result of reference-folding each member alone.
func TestMultiSketchMemberIdentity(t *testing.T) {
	parts, info := multiTestParts(t)
	members := []Sketch{
		&HistogramSketch{Col: "gd", Buckets: NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 9)},
		&RangeSketch{Col: "gi"},
		&HistogramSketch{Col: "gd", Buckets: NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, 6), Rate: 0.5, Seed: 17},
		&DistinctCountSketch{Col: "gs"},
	}
	ms := mustMulti(members...)

	// Reference path: per-partition Summarize + sequential fold.
	fold := func(sk Sketch) Result {
		acc := sk.Zero()
		for _, p := range parts {
			r, err := sk.Summarize(p)
			if err != nil {
				t.Fatalf("%s: %v", sk.Name(), err)
			}
			if acc, err = sk.Merge(acc, r); err != nil {
				t.Fatalf("%s: %v", sk.Name(), err)
			}
		}
		return acc
	}
	batched := fold(ms).(*MultiResult)
	for i, m := range members {
		if want := fold(m); !reflect.DeepEqual(batched.Members[i], want) {
			t.Errorf("member %d (%s): batched reference fold differs from solo", i, m.Name())
		}
	}

}

// TestMultiSketchCodecRejectsNesting pins the decoder guard: a crafted
// frame nesting a MultiSketch (or MultiResult) inside itself must error
// cleanly, bounding decode recursion.
func TestMultiSketchCodecRejectsNesting(t *testing.T) {
	inner := mustMulti(&RangeSketch{Col: "gd"})
	b, ok := AppendSketchWire(nil, inner)
	if !ok {
		t.Fatal("MultiSketch has no codec")
	}
	// Hand-craft an outer MultiSketch frame whose single member is the
	// inner multi's tag+body.
	crafted := []byte{tagMultiSketch}
	crafted = append(crafted, 2)    // AppendLen(1): varint(n+1)=2
	crafted = append(crafted, 1)    // member 0: hasCodec = true
	crafted = append(crafted, b...) // nested tagMultiSketch payload
	if _, _, err := DecodeSketchWire(crafted); err == nil {
		t.Error("nested MultiSketch frame decoded without error")
	}

	res := &MultiResult{Members: []Result{&MultiResult{Members: []Result{}}}}
	rb, ok := AppendResultWire(nil, res)
	if ok {
		if _, _, err := DecodeResultWire(rb); err == nil ||
			!strings.Contains(err.Error(), "nested") {
			t.Errorf("nested MultiResult decode: %v, want nested-rejection error", err)
		}
	}
}

// TestMultiCodecRefusesCodecLessMember: a batch with a member that has
// no wire codec does not encode (the transport reports an encode error
// before writing), and a member slot whose leading bool is false is
// corrupt.
func TestMultiCodecRefusesCodecLessMember(t *testing.T) {
	ms := mustMulti(&RangeSketch{Col: "gd"}, undeclaredSketch{})
	if b, ok := AppendSketchWire([]byte{7}, ms); ok || len(b) != 1 {
		t.Errorf("MultiSketch with a codec-less member encoded: ok=%v, %d bytes", ok, len(b))
	}
	mr := &MultiResult{Members: []Result{&DataRange{}, int64(0)}}
	if b, ok := AppendResultWire([]byte{7}, mr); ok || len(b) != 1 {
		t.Errorf("MultiResult with a codec-less member encoded: ok=%v, %d bytes", ok, len(b))
	}

	b, ok := AppendSketchWire(nil, mustMulti(&RangeSketch{Col: "gd"}))
	if !ok {
		t.Fatal("MultiSketch has no codec")
	}
	// tag, AppendLen(1), then member 0's slot bool.
	if b[2] != 1 {
		t.Fatalf("member slot bool = %d, want 1", b[2])
	}
	b[2] = 0
	if _, _, err := DecodeSketchWire(b); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("false member slot: err = %v, want wire.ErrCorrupt", err)
	}
	rb, ok := AppendResultWire(nil, &MultiResult{Members: []Result{&DataRange{}}})
	if !ok {
		t.Fatal("MultiResult has no codec")
	}
	rb[2] = 0
	if _, _, err := DecodeResultWire(rb); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("false result member slot: err = %v, want wire.ErrCorrupt", err)
	}
}
