package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/wire"
)

// appendCraftedHistogram builds a histogram body whose Counts length
// prefix claims 2^40 elements over no payload.
func appendCraftedHistogram() []byte {
	b := []byte{byte(table.KindDouble)}     // bucket spec: kind
	b = append(b, make([]byte, 16)...)      // min, max
	b = wire.AppendUvarint(b, 0)            // bounds: nil
	b = append(b, 0)                        // exactValues
	b = append(b, 8)                        // count varint (4)
	return wire.AppendUvarint(b, (1<<40)+1) // Counts: 2^40 elements declared
}

// sealFrame appends payload's CRC-32C and prefixes the outer length.
func sealFrame(payload []byte) []byte {
	payload = binary.BigEndian.AppendUint32(payload, crc32.Checksum(payload, crcTable))
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// frameBytes encodes envelopes through the real frame writer, producing
// well-formed seed input for the fuzzer.
func frameBytes(t testing.TB, envs ...*Envelope) []byte {
	t.Helper()
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	for _, env := range envs {
		if err := fc.send(env); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzFrame feeds arbitrary bytes to the frame codec the cluster
// protocol reads from the network. The contract under fuzzing: recv
// either returns an envelope or an error — it must never panic and
// never allocate unboundedly from attacker-controlled lengths (the
// outer frame length is capped, and every inner length prefix is
// validated against the bytes remaining before any allocation —
// wire.ErrCorrupt, the HVC-reader hardening rule applied to the
// network).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                // short header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // over-limit frame length
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3})    // truncated payload
	f.Add([]byte{0, 0, 0, 2, 0xff, 0xbf}) // bad magic
	f.Add(frameBytes(f, &Envelope{ReqID: 1, Kind: MsgPing}))
	f.Add(frameBytes(f,
		&Envelope{ReqID: 2, Kind: MsgLoad, DatasetID: "d", Source: "flights:rows=1"},
		&Envelope{ReqID: 2, Kind: MsgOK, NumLeaves: 3},
	))
	f.Add(frameBytes(f, &Envelope{
		ReqID: 3, Kind: MsgSketch,
		Sketch: &sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 4)},
	}))
	f.Add(frameBytes(f, &Envelope{
		ReqID: 4, Kind: MsgFinal,
		Result: &sketch.Histogram{Counts: []int64{1, 2, 3}, SampleRate: 1},
		Done:   1, Total: 2,
	}))
	// One final frame per wire result type, so every typed decoder is
	// in the corpus (merged zeros are structurally complete payloads).
	for i, sk := range sketch.WireSketches() {
		f.Add(frameBytes(f, &Envelope{
			ReqID: uint64(10 + i), Kind: MsgFinal, Result: sk.Zero(), Done: 1, Total: 1,
		}))
		if _, ok := sk.(*sketch.DistinctBottomKSketch); ok {
			f.Add(retiredSketchTagFrame(f, retiredSketchTag, &sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 4)}))
		}
	}
	// Tags 2 and 3, the retired sampled and CDF histograms, over the
	// body they carried — tag 1's now.
	for _, tag := range []byte{2, 3} {
		f.Add(retiredSketchTagFrame(f, tag, &sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 4), Rate: 0.5, Seed: 7}))
	}
	// Partials are full frames: one twice over (byte-level duplication
	// must decode both copies), one cut mid-body, and a result-less one
	// (tag 0).
	h := &sketch.Histogram{Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 6), Counts: []int64{2, 1, 2, 0, 4, 3}, SampleRate: 1, SampledRows: 12}
	partial := frameBytes(f, &Envelope{ReqID: 5, Kind: MsgPartial, Result: h, Done: 1, Total: 2})
	f.Add(append(append([]byte{}, partial...), partial...))
	f.Add(partial[:len(partial)/2])
	f.Add(frameBytes(f, &Envelope{ReqID: 5, Kind: MsgPartial, Done: 1, Total: 2}))
	// A version-0x01 partial with the retired delta flag (bit 0) and the
	// seq uvarint that version put after done and total: a peer
	// speaking version 0x01 must fail the version check, not misparse.
	v1 := []byte{frameMagic, 0x01, byte(MsgPartial), 1 << 0, 5, 2, 2, 2}
	v1, _ = sketch.AppendResultWire(v1, h)
	v1 = sealFrame(v1)
	if _, err := recvBytes(v1); err == nil || !strings.Contains(err.Error(), "unsupported frame version 1; this build speaks 2") {
		f.Fatalf("version-0x01 delta partial: err = %v, want a version error", err)
	}
	f.Add(v1)
	// Version-byte skew: tomorrow's frame version must be rejected, not
	// misparsed.
	skew := frameBytes(f, &Envelope{ReqID: 6, Kind: MsgPing})
	skew[5] = frameVersion + 1
	reseal(skew) // valid CRC keeps the version check itself in the corpus
	f.Add(skew)
	// Crafted inner length: a histogram declaring 2^40 counters over a
	// ten-byte body (the OOM probe). Sealed with a valid CRC so the
	// inner length validation — not the checksum or the trailing-bytes
	// check — is what it probes.
	crafted := []byte{frameMagic, frameVersion, byte(MsgFinal), 0, 7, 1, 1} // reqID 7, done 1, total 1
	crafted = append(crafted, 1)                                            // result tag: histogram
	crafted = sealFrame(append(crafted, appendCraftedHistogram()...))
	if _, err := recvBytes(crafted); !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), "elements exceeds") {
		f.Fatalf("crafted 2^40-counter final: err = %v, want the inner length check", err)
	}
	f.Add(crafted)
	// Sealed frames of the retired kinds, which must be rejected: kind
	// 11 with an empty body, and kind 5 with the dataset-ID string body
	// it carried (an error frame's string body, relabelled).
	for _, r := range []struct {
		kind byte
		env  *Envelope
	}{
		{11, &Envelope{ReqID: 7, Kind: MsgPing}},
		{5, &Envelope{ReqID: 9, Kind: MsgError, Err: "d"}},
	} {
		retired := frameBytes(f, r.env)
		retired[6] = r.kind
		reseal(retired)
		if _, err := recvBytes(retired); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown frame kind %d", r.kind)) {
			f.Fatalf("kind-%d frame: err = %v, want unknown frame kind", r.kind, err)
		}
		f.Add(retired)
	}
	// Traced frames: a request carrying just the trace ID and a final
	// carrying a stitched span list, so the flagTrace tail parser is in
	// the corpus; plus the crafted tail claiming 2^40 spans over no
	// payload (the trace-section OOM probe).
	f.Add(frameBytes(f,
		&Envelope{ReqID: 8, Kind: MsgSketch, DatasetID: "d", TraceID: "00aa11bb22cc33dd",
			Sketch: &sketch.HistogramSketch{Col: "x", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 4)}},
		&Envelope{ReqID: 8, Kind: MsgFinal, TraceID: "00aa11bb22cc33dd",
			Result: &sketch.Histogram{Counts: []int64{1}, SampleRate: 1}, Done: 1, Total: 1,
			Spans: []obs.Span{{Name: "worker.sketch", Start: 1000, Dur: 2000, Note: "n"}}},
	))
	f.Add(craftedTraceFrame())
	// Scroll cursors shorter than their sort order: comparing a row to
	// one indexes past it, so the decoder must reject the request.
	shortFrom := table.Row{table.IntValue(1)}
	f.Add(frameBytes(f,
		&Envelope{ReqID: 9, Kind: MsgSketch, DatasetID: "d",
			Sketch: &sketch.NextKSketch{Order: table.Asc("a").Then("b", false), K: 5, From: shortFrom}},
		&Envelope{ReqID: 10, Kind: MsgSketch, DatasetID: "d",
			Sketch: &sketch.FindTextSketch{Col: "a", Pattern: "x", Order: table.Asc("a").Then("b", true), From: shortFrom}},
	))
	// Decode checks the seeds above do not reach: a cursor longer than
	// its order, a result whose bucket count is past wire.MaxElems, a
	// multi member slot marked absent, a multi nested in a multi on
	// either side of the wire, and a string bucket spec whose count is
	// not its number of bounds (its slots would index past the tallies).
	// Each must be rejected as corrupt.
	for i, frame := range [][]byte{
		frameBytes(f, &Envelope{ReqID: 13, Kind: MsgSketch, DatasetID: "d",
			Sketch: &sketch.NextKSketch{Order: table.Asc("a"), K: 5, From: table.Row{table.IntValue(1), table.IntValue(2)}}}),
		frameBytes(f, &Envelope{ReqID: 14, Kind: MsgFinal, Done: 1, Total: 1,
			Result: &sketch.Histogram{Buckets: sketch.BucketSpec{Kind: table.KindDouble, Max: 1, Count: wire.MaxElems + 1}}}),
		falseMemberSlotFrame(f),
		frameBytes(f, &Envelope{ReqID: 15, Kind: MsgSketch, DatasetID: "d",
			Sketch: &sketch.MultiSketch{Sketches: []sketch.Sketch{&sketch.MultiSketch{Sketches: []sketch.Sketch{&sketch.RangeSketch{Col: "a"}}}}}}),
		frameBytes(f, &Envelope{ReqID: 16, Kind: MsgFinal, Done: 1, Total: 1,
			Result: &sketch.MultiResult{Members: []sketch.Result{&sketch.MultiResult{Members: []sketch.Result{&sketch.DataRange{}}}}}}),
		frameBytes(f, &Envelope{ReqID: 17, Kind: MsgSketch, DatasetID: "d",
			Sketch: &sketch.HistogramSketch{Col: "s", Buckets: sketch.BucketSpec{Kind: table.KindString, Bounds: []string{"a", "b", "c"}, Count: 1}}}),
	} {
		if _, err := recvBytes(frame); !errors.Is(err, wire.ErrCorrupt) {
			f.Fatalf("decode-check seed %d: err = %v, want wire.ErrCorrupt", i, err)
		}
		f.Add(frame)
	}
	// Bucket geometry a worker's Zero could not allocate: a negative
	// count, a count past wire.MaxElems, and 2-D and trellis grids of
	// more than wire.MaxElems cells.
	for i, sk := range oversizedBucketSketches() {
		f.Add(frameBytes(f, &Envelope{ReqID: uint64(11 + i), Kind: MsgSketch, DatasetID: "d", Sketch: sk}))
	}
	// Op tag 3, the retired projection, over a filter's body: a sealed
	// map request the decoder must reject as an unknown op.
	retiredOp := frameBytes(f, &Envelope{ReqID: 12, Kind: MsgMap, DatasetID: "d", NewID: "d2", Op: engine.FilterOp{Predicate: "a"}})
	_, rest, err := wire.ConsumeUvarint(retiredOp[8:])
	for i := 0; i < 2 && err == nil; i++ { // the dataset and derived IDs
		_, rest, err = wire.ConsumeString(rest)
	}
	if err != nil {
		f.Fatal(err)
	}
	rest[0] = 3
	reseal(retiredOp)
	if _, err := recvBytes(retiredOp); err == nil || !strings.Contains(err.Error(), "unknown op tag 3") {
		f.Fatalf("op tag 3: err = %v, want unknown op tag 3", err)
	}
	f.Add(retiredOp)
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := newFrameConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		for i := 0; i < 16; i++ {
			env, err := fc.recv()
			if err != nil {
				return // malformed input must surface as an error
			}
			if env == nil {
				t.Fatal("recv returned neither envelope nor error")
			}
		}
	})
}

// retiredSketchTagFrame is a sealed request for sk with its sketch tag
// relabelled to a retired one: a decoder must reject it as an unknown
// tag, never reach a codec.
func retiredSketchTagFrame(f *testing.F, tag byte, sk sketch.Sketch) []byte {
	frame := frameBytes(f, &Envelope{ReqID: 1, Kind: MsgSketch, DatasetID: "d", Sketch: sk})
	if err := setSketchTag(frame, tag); err != nil {
		f.Fatal(err)
	}
	if _, err := recvBytes(frame); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown sketch tag %d", tag)) {
		f.Fatalf("retired sketch tag %d: err = %v, want an unknown-tag error", tag, err)
	}
	return frame
}

// falseMemberSlotFrame is a sealed request for a one-member MultiSketch
// whose member slot bool is cleared.
func falseMemberSlotFrame(f *testing.F) []byte {
	multi := &sketch.MultiSketch{Sketches: []sketch.Sketch{&sketch.RangeSketch{Col: "a"}}}
	body, _ := sketch.AppendSketchWire(nil, multi)
	frame := frameBytes(f, &Envelope{ReqID: 17, Kind: MsgSketch, DatasetID: "d", Sketch: multi})
	slot := bytes.Index(frame, body) + 2 // after the multi's tag and member count
	if frame[slot] != 1 {
		f.Fatalf("member slot byte = %d, want 1", frame[slot])
	}
	frame[slot] = 0
	reseal(frame)
	return frame
}

// oversizedBucketSketches are sketch requests whose bucket geometry
// would make a worker's Zero panic (a negative count) or exhaust memory
// (a count, a grid of cells, or a trellis's cells and plots, past
// wire.MaxElems).
func oversizedBucketSketches() []sketch.Sketch {
	spec := func(n int) sketch.BucketSpec { return sketch.BucketSpec{Kind: table.KindDouble, Max: 1, Count: n} }
	return []sketch.Sketch{
		&sketch.HistogramSketch{Col: "x", Buckets: spec(-1)},
		&sketch.HistogramSketch{Col: "x", Buckets: spec(1 << 40)},
		&sketch.Histogram2DSketch{XCol: "x", YCol: "y", X: spec(1 << 12), Y: spec(1 << 12)},
		&sketch.TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(1 << 8), X: spec(1 << 8), Y: spec(1 << 8)},
		// Under MaxElems by bucket counts, over it by the Count+2 slots
		// per axis a scan allocates.
		&sketch.Histogram2DSketch{XCol: "x", YCol: "y", X: spec(2047), Y: spec(2047)},
		&sketch.TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(62), X: spec(256), Y: spec(256)},
		// Under MaxElems by slots, over it by the one plot per group a
		// trellis builds.
		&sketch.TrellisSketch{GroupCol: "g", XCol: "x", YCol: "y", Group: spec(466031), X: spec(1), Y: spec(1)},
	}
}

// TestShortCursorFrameRejected: a sketch request whose scroll cursor is
// shorter than its sort order never reaches a worker's scan — the frame
// decoder reports it as corrupt.
func TestShortCursorFrameRejected(t *testing.T) {
	for _, sk := range []sketch.Sketch{
		&sketch.NextKSketch{Order: table.Asc("a").Then("b", false), K: 5, From: table.Row{table.IntValue(1)}},
		&sketch.FindTextSketch{Col: "a", Pattern: "x", Order: table.Asc("a").Then("b", true), From: table.Row{table.IntValue(1)}},
	} {
		if err := recvSketchFrame(t, sk); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%T with a short cursor: recv err = %v, want wire.ErrCorrupt", sk, err)
		}
	}
}

// TestOversizedBucketFrameRejected: bucket geometry a worker could not
// allocate never reaches its Zero — the frame decoder reports it as
// corrupt — while the largest grid that fits still decodes.
func TestOversizedBucketFrameRejected(t *testing.T) {
	for _, sk := range oversizedBucketSketches() {
		if err := recvSketchFrame(t, sk); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: recv err = %v, want wire.ErrCorrupt", sk.Name(), err)
		}
	}
	fits := sketch.BucketSpec{Kind: table.KindDouble, Max: 1, Count: 1<<11 - 2}
	if err := recvSketchFrame(t, &sketch.Histogram2DSketch{XCol: "x", YCol: "y", X: fits, Y: fits}); err != nil {
		t.Errorf("a %d-slot grid: recv err = %v", wire.MaxElems, err)
	}
}

// recvSketchFrame sends a sketch request through the frame codec and
// returns the receiving side's error.
func recvSketchFrame(t *testing.T, sk sketch.Sketch) error {
	t.Helper()
	_, err := recvBytes(frameBytes(t, &Envelope{ReqID: 1, Kind: MsgSketch, DatasetID: "d", Sketch: sk}))
	return err
}

// recvBytes decodes the first frame of data.
func recvBytes(data []byte) (*Envelope, error) {
	fc := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(data), io.Discard})
	return fc.recv()
}
