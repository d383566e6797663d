package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/table"
	"repro/internal/wire"
)

// TestWireCodecCoverage mirrors the oracle coverage rule: every sketch
// shipped in wireSketches must have a binary codec for itself and for
// its summary type. A sketch added without codecs fails here, not in
// production where it could not cross the wire.
func TestWireCodecCoverage(t *testing.T) {
	for _, sk := range WireSketches() {
		if _, ok := AppendSketchWire(nil, sk); !ok {
			t.Errorf("%T has no sketch tag (RegisterSketch)", sk)
		}
		z := sk.Zero()
		if _, ok := AppendResultWire(nil, z); !ok {
			t.Errorf("%T result %T has no result tag (RegisterResult)", sk, z)
		}
	}
}

// resultRoundTrip encodes and decodes r through the binary codec and
// demands DeepEqual.
func resultRoundTrip(t *testing.T, r Result) Result {
	t.Helper()
	b, ok := AppendResultWire(nil, r)
	if !ok {
		t.Fatalf("%T: no codec", r)
	}
	got, rest, err := DecodeResultWire(b)
	if err != nil {
		t.Fatalf("%T: decode: %v", r, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%T: %d trailing bytes", r, len(rest))
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("%T round trip diverged:\n  sent %+v\n  got  %+v", r, r, got)
	}
	if again, _ := AppendResultWire(nil, got); !bytes.Equal(again, b) {
		t.Fatalf("%T: the decoded result re-encodes to different bytes", r)
	}
	return got
}

// TestHeavyHittersWireDeterministic: equal heavy-hitter results encode
// to equal bytes whatever order their counters were inserted in,
// including two NaN counters, which are distinct map keys that
// Value.Compare cannot order.
func TestHeavyHittersWireDeterministic(t *testing.T) {
	values := []table.Value{
		table.StringValue("b"), table.StringValue("a"), table.StringValue(""),
		table.IntValue(-3), table.IntValue(40), table.DoubleValue(2.5),
		table.DoubleValue(math.Inf(-1)), table.MissingValue(table.KindString),
		table.MissingValue(table.KindDouble),
	}
	nan := table.DoubleValue(math.NaN())
	build := func(order []int) *HeavyHitters {
		h := &HeavyHitters{K: 16, Counters: map[table.Value]int64{}, ScannedRows: 1000}
		for _, i := range order {
			if i >= len(values) {
				h.Counters[nan] = int64(i) // each NaN insert is a new key
				continue
			}
			h.Counters[values[i]] = int64(10 + i)
		}
		return h
	}
	order := make([]int, len(values)+2)
	for i := range order {
		order[i] = i
	}
	want, _ := AppendResultWire(nil, build(order))
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got, _ := AppendResultWire(nil, build(order)); !bytes.Equal(got, want) {
			t.Fatalf("insertion order %v encodes to different bytes", order)
		}
	}
}

// testInstances builds one parameterized instance of every wire sketch
// over the generated columns, seeded like the testkit harness.
func testInstances(seed uint64, info table.GenInfo) []Sketch {
	dB := func(n int) BucketSpec {
		return NumericBuckets(table.KindDouble, info.DoubleLo, info.DoubleHi, n)
	}
	iB := NumericBuckets(table.KindInt, float64(info.IntLo), float64(info.IntHi), 9)
	sB := StringBucketsFromDistinct(info.DictValues, 12)
	gB := StringBucketsFromDistinct(info.DictValues, 3)
	return []Sketch{
		&HistogramSketch{Col: "gd", Buckets: dB(13)},
		&HistogramSketch{Col: "gd", Buckets: dB(10), Rate: 0.4, Seed: seed ^ 1},
		&HistogramSketch{Col: "gi", Buckets: iB, Rate: 0.5, Seed: seed ^ 2},
		&Histogram2DSketch{XCol: "gd", YCol: "gs", X: dB(6), Y: sB},
		&TrellisSketch{GroupCol: "gs", XCol: "gd", YCol: "gi", Group: gB, X: dB(4), Y: iB, Rate: 0.6, Seed: seed ^ 3},
		&NextKSketch{Order: table.Asc("gd").Then("gi", false), Extra: []string{"gs"}, K: 25},
		&NextKSketch{Order: table.Asc("gs"), K: 10, From: table.Row{table.StringValue(info.DictValues[len(info.DictValues)/2])}},
		&FindTextSketch{Col: "gs", Pattern: "w00", Kind: MatchSubstring, Order: table.Asc("gs").Then("gi", true), Extra: []string{"gd"}},
		&QuantileSketch{Order: table.Asc("gd").Then("gs", true), Extra: []string{"gi"}, SampleSize: 48, Seed: seed ^ 5},
		&MisraGriesSketch{Col: "gs", K: 8},
		&MisraGriesSketch{Col: "gi", K: 6},
		&SampleHeavyHittersSketch{Col: "gs", K: 8, Rate: 0.5, Seed: seed ^ 6},
		&RangeSketch{Col: "gd"},
		&RangeSketch{Col: "gs"},
		&MomentsSketch{Col: "gd", K: 3},
		&DistinctCountSketch{Col: "gs"},
		&DistinctBottomKSketch{Col: "gs", K: 16},
		&MetaSketch{},
		mustMulti(
			&HistogramSketch{Col: "gi", Buckets: iB},
			&MisraGriesSketch{Col: "gs", K: 7},
			&HistogramSketch{Col: "gd", Buckets: dB(8), Rate: 0.5, Seed: seed ^ 8},
			&RangeSketch{Col: "gt"},
		),
	}
}

// mustMulti builds a MultiSketch instance or panics; test instances are
// static and always valid.
func mustMulti(members ...Sketch) *MultiSketch {
	ms, err := NewMultiSketch(members...)
	if err != nil {
		panic(err)
	}
	return ms
}

// TestResultCodecRoundTrip runs every wire sketch over randomized
// generated partitions (the testkit generator) and round-trips the
// per-partition summaries, the merged summary, and the zero summary
// through the binary codec, demanding DeepEqual each time — the same
// comparison the differential oracle applies across topologies.
func TestResultCodecRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		parts, info := table.GenPartitions("codec", seed, 900, 3)
		for _, sk := range testInstances(seed, info) {
			resultRoundTrip(t, sk.Zero())
			results := make([]Result, 0, len(parts))
			for _, p := range parts {
				r, err := sk.Summarize(p)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, sk.Name(), err)
				}
				results = append(results, r)
				resultRoundTrip(t, r)
			}
			merged, err := MergeAll(sk, results...)
			if err != nil {
				t.Fatalf("seed %d %s: merge: %v", seed, sk.Name(), err)
			}
			resultRoundTrip(t, merged)
		}
	}
}

// TestSketchCodecRoundTrip round-trips every wire sketch's own
// configuration and checks the decoded sketch computes the identical
// result — Name equality plus a bit-exact Summarize on one partition.
func TestSketchCodecRoundTrip(t *testing.T) {
	parts, info := table.GenPartitions("codecsk", 5, 700, 2)
	for _, sk := range testInstances(5, info) {
		b, ok := AppendSketchWire(nil, sk)
		if !ok {
			t.Fatalf("%T: no codec", sk)
		}
		got, rest, err := DecodeSketchWire(b)
		if err != nil {
			t.Fatalf("%T: decode: %v", sk, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%T: %d trailing bytes", sk, len(rest))
		}
		if !reflect.DeepEqual(sk, got) {
			t.Fatalf("%T diverged:\n  sent %+v\n  got  %+v", sk, sk, got)
		}
		if sk.Name() != got.Name() {
			t.Fatalf("%T: name %q became %q", sk, sk.Name(), got.Name())
		}
		want, err1 := sk.Summarize(parts[0])
		have, err2 := got.Summarize(parts[0])
		if err1 != nil || err2 != nil {
			t.Fatalf("%T: summarize: %v / %v", sk, err1, err2)
		}
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("%T: decoded sketch computed a different summary", sk)
		}
	}
}

// TestDecodeCorruptPayloads feeds truncations and bit flips of valid
// result payloads to the decoder: every outcome must be a value or a
// clean error — never a panic — and truncations must error.
func TestDecodeCorruptPayloads(t *testing.T) {
	parts, info := table.GenPartitions("codecfz", 3, 600, 2)
	for _, sk := range testInstances(3, info) {
		r, err := sk.Summarize(parts[0])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := AppendResultWire(nil, r)
		for cut := 0; cut < len(b); cut += 1 + len(b)/37 {
			if _, _, err := DecodeResultWire(b[:cut]); err == nil && cut < len(b) {
				// Some truncations of variable-length payloads can parse as
				// a shorter valid value; that is fine. The test is that no
				// input panics and truncated fixed-width data errors.
				continue
			}
		}
		rng := rand.New(rand.NewPCG(uint64(len(b)), 7))
		for i := 0; i < 64; i++ {
			mut := append([]byte(nil), b...)
			mut[rng.IntN(len(mut))] ^= byte(1 << rng.IntN(8))
			_, _, _ = DecodeResultWire(mut) // must not panic
		}
	}
}

// TestCraftedAmplificationBounded guards the second OOM vector: a
// declared count that fits the remaining wire bytes (1-byte elements)
// but whose in-memory elements are 24+ bytes each. Decoders grow by
// appending from a capped preallocation, so memory stays a bounded
// multiple of the bytes actually decoded, and counts beyond
// wire.MaxElems are rejected outright.
func TestCraftedAmplificationBounded(t *testing.T) {
	// ~1M nil rows from ~1MB of body: decode memory may amplify (24-byte
	// row headers from 1-byte elements, plus append growth churn) but
	// must stay a bounded multiple of the frame.
	body := wire.AppendLen(nil, 0, true) // Order: nil
	n := 1 << 20
	body = wire.AppendLen(body, n, false)   // Rows: 2^20 declared
	body = append(body, make([]byte, n)...) // 1 byte per "row" (each parses as nil or errors)
	crafted := append([]byte{byte(tagNextKList)}, body...)
	// One P for the measured window, as testing.AllocsPerRun pins it: a
	// sync.Pool's per-P slot is missed by a goroutine that changes P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := DecodeResultWire(crafted)
	runtime.ReadMemStats(&after)
	if err == nil {
		// A stream of zero bytes decodes rows until the trailing fields
		// fail; either way the decode must not have ballooned.
		t.Log("crafted payload decoded; checking allocation bound only")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(crafted))*256 {
		t.Fatalf("decode of a %dB crafted frame allocated %dB", len(crafted), grew)
	}
	// Beyond MaxElems the count is rejected whatever the body carries —
	// the hard bound on adversarial decode memory.
	huge := wire.AppendLen(nil, 0, true)
	huge = wire.AppendLen(huge, wire.MaxElems+1, false)
	huge = append(huge, make([]byte, wire.MaxElems+2)...)
	crafted = append([]byte{byte(tagNextKList)}, huge...)
	if _, _, err := DecodeResultWire(crafted); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("count beyond MaxElems: want ErrCorrupt, got %v", err)
	}
}

// TestCraftedLengthNoOOM is the codec-level OOM guard: a crafted
// payload declaring a huge element count over a tiny body must fail
// with wire.ErrCorrupt before allocating.
func TestCraftedLengthNoOOM(t *testing.T) {
	// Histogram payload: bucket spec, then Counts with a crafted length.
	h := &Histogram{Buckets: NumericBuckets(table.KindDouble, 0, 1, 4), SampleRate: 1}
	b, _ := AppendResultWire(nil, h)
	// Locate the Counts length (encoded right after the bucket spec) by
	// re-encoding with a poisoned length: spec bytes are identical.
	spec, _ := appendField(nil, reflect.ValueOf(&h.Buckets).Elem())
	crafted := append([]byte{b[0]}, spec...)
	crafted = wire.AppendUvarint(crafted, 1<<40) // 2^40-1 counters, no body
	if _, _, err := DecodeResultWire(crafted); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("crafted length: want ErrCorrupt, got %v", err)
	}
}

// TestStringBucketCountMatchesBounds: a string bucket's slots come
// from its bounds, so a spec whose Count is not len(Bounds) would index
// past the tallies Count sizes (a worker panic on an in-range row). The
// decoder rejects it as corrupt, in a sketch and in a result, and the
// specs StringBucketsFromBounds builds still decode.
func TestStringBucketCountMatchesBounds(t *testing.T) {
	for _, count := range []int{0, 1, 2, 4} {
		spec := BucketSpec{Kind: table.KindString, Bounds: []string{"a", "b", "c"}, Count: count}
		sk := &HistogramSketch{Col: "s", Buckets: spec}
		b, _ := AppendSketchWire(nil, sk)
		if _, _, err := DecodeSketchWire(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("histogram sketch over %s: decode err = %v, want wire.ErrCorrupt", spec, err)
		}
		b, _ = AppendResultWire(nil, &Histogram{Buckets: spec, Counts: make([]int64, count)})
		if _, _, err := DecodeResultWire(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("histogram over %s: decode err = %v, want wire.ErrCorrupt", spec, err)
		}
	}
	for _, bounds := range [][]string{nil, {"a"}, {"a", "b", "c"}} {
		sk := &HistogramSketch{Col: "s", Buckets: StringBucketsFromBounds(bounds, false)}
		b, _ := AppendSketchWire(nil, sk)
		if _, _, err := DecodeSketchWire(b); err != nil {
			t.Errorf("%s: decode err = %v", sk.Name(), err)
		}
	}
}

// TestCellBoundCountsScanSlots: a 2-D scan allocates Count+2 slots per
// axis and the trellis one block per group slot, so the decode bound is
// on that product. Each rejected geometry is under wire.MaxElems by
// bucket counts alone. The accepted heat map fills the bound exactly;
// the accepted trellis is the largest square plot at two groups once
// its plots are counted too (TestTrellisPlotsCountInBound).
func TestCellBoundCountsScanSlots(t *testing.T) {
	spec := func(n int) BucketSpec { return BucketSpec{Kind: table.KindDouble, Max: 1, Count: n} }
	for _, sk := range []Sketch{
		&Histogram2DSketch{XCol: "x", YCol: "y", X: spec(2047), Y: spec(2047)},
		&TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(62), X: spec(256), Y: spec(256)},
		&TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(0), X: spec(1447), Y: spec(1447)},
		&TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(2), X: spec(835), Y: spec(835)},
	} {
		b, _ := AppendSketchWire(nil, sk)
		if _, _, err := DecodeSketchWire(b); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: decode err = %v, want wire.ErrCorrupt", sk.Name(), err)
		}
	}
	for _, fits := range []Sketch{
		&Histogram2DSketch{XCol: "x", YCol: "y", X: spec(2046), Y: spec(2046)},
		&TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(2), X: spec(834), Y: spec(834)},
	} {
		b, _ := AppendSketchWire(nil, fits)
		if _, _, err := DecodeSketchWire(b); err != nil {
			t.Errorf("%s: decode err = %v", fits.Name(), err)
		}
	}
}

// TestTrellisPlotsCountInBound: a trellis builds one Histogram2D per
// group besides its slot matrix, so many groups of tiny plots must not
// pass the bound on slots alone. 466,031 groups of 1×1 plots fill
// 466,033·3·3 ≤ wire.MaxElems slots, but their plots would cost a
// worker ≈135 MB per partition.
func TestTrellisPlotsCountInBound(t *testing.T) {
	spec := func(n int) BucketSpec { return BucketSpec{Kind: table.KindDouble, Max: 1, Count: n} }
	sk := &TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(466031), X: spec(1), Y: spec(1)}
	if err := checkCells(sk.Group, sk.X, sk.Y); err != nil {
		t.Fatalf("the slot matrix alone should fit: %v", err)
	}
	b, _ := AppendSketchWire(nil, sk)
	if _, _, err := DecodeSketchWire(b); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("%s: decode err = %v, want wire.ErrCorrupt", sk.Name(), err)
	}
}

// TestWireLengthBounds pins the smallest element encodings that length
// prefixes are checked against before a decoder allocates. A field rule
// change that shrank one would let a crafted count buy more memory per
// wire byte.
func TestWireLengthBounds(t *testing.T) {
	for _, c := range []struct {
		what string
		elem reflect.Type
		want int
	}{
		{"RecordOrder column", reflect.TypeFor[table.ColumnSortOrder](), 2},
		{"Row value", reflect.TypeFor[table.Value](), 1},
		{"Trellis plot", reflect.TypeFor[*Histogram2D](), 1},
		{"NextKList row", reflect.TypeFor[table.Row](), 1},
		{"SampleSet item", reflect.TypeFor[SampleItem](), 9},
		{"multi member", reflect.TypeFor[Sketch](), 2},
		{"schema column", reflect.TypeFor[table.ColumnDesc](), 2},
	} {
		if got := minWireSize(c.elem); got != c.want {
			t.Errorf("%s: smallest encoding %d bytes, want %d", c.what, got, c.want)
		}
	}
}

// TestRegisterRefusesUnencodableTypes: a type whose fields the codec
// cannot encode, or would drop, panics at registration, not on the wire.
func TestRegisterRefusesUnencodableTypes(t *testing.T) {
	type unexported struct {
		Col string
		k   int
	}
	type narrow struct{ F float32 }
	type keyed struct{ M map[string]int }
	type stringer struct{ S fmt.Stringer }
	type empties struct{ E []struct{} }
	for _, proto := range []any{&unexported{}, &narrow{}, &keyed{}, &stringer{}, &empties{}, unexported{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T registered", proto)
				}
			}()
			(&registry{what: "test", tags: map[reflect.Type]byte{}}).register(1, proto)
		}()
	}
}
