package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/wire"
)

// unregisteredOp has gob registration but no binary codec, forcing a
// MsgGobEnvelope frame into the corpus.
type unregisteredOp struct{ X int }

func (unregisteredOp) Apply(t *table.Table, id string) (*table.Table, error) { return t, nil }
func (unregisteredOp) Describe() string                                      { return "unregistered" }

func init() { gob.Register(unregisteredOp{}) }

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
	}
	// A full-then-delta partial pair, the delta alone (no base — must
	// error cleanly), and a truncated delta.
	h1 := &sketch.Histogram{Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 6), Counts: []int64{1, 0, 2, 0, 0, 3}, SampleRate: 1, SampledRows: 6}
	h2 := &sketch.Histogram{Buckets: h1.Buckets, Counts: []int64{2, 1, 2, 0, 4, 3}, SampleRate: 1, SampledRows: 12}
	pair := frameBytes(f,
		&Envelope{ReqID: 5, Kind: MsgPartial, Result: h1, Done: 1, Total: 2},
		&Envelope{ReqID: 5, Kind: MsgPartial, Result: h2, Done: 2, Total: 2},
	)
	f.Add(pair)
	firstLen := 4 + int(binary.BigEndian.Uint32(pair[:4]))
	f.Add(pair[firstLen:])                                       // delta without a base
	f.Add(pair[:firstLen+(len(pair)-firstLen)/2])                // truncated delta frame
	f.Add(append(append([]byte{}, pair...), pair[:firstLen]...)) // full, delta, duplicated full
	// Version-byte skew: tomorrow's frame version must be rejected, not
	// misparsed.
	skew := frameBytes(f, &Envelope{ReqID: 6, Kind: MsgPing})
	skew[5] = frameVersion + 1
	reseal(skew) // valid CRC keeps the version check itself in the corpus
	f.Add(skew)
	// Crafted inner length: a histogram declaring 2^40 counters over a
	// ten-byte body (the OOM probe). Sealed with a valid CRC so the
	// inner length validation — not the checksum — is what it probes.
	crafted := []byte{frameMagic, frameVersion, byte(MsgFinal), 0, 7, 1, 1, 0}
	crafted = append(crafted, 1) // result tag: histogram
	crafted = append(crafted, appendCraftedHistogram()...)
	crafted = binary.BigEndian.AppendUint32(crafted, crc32.Checksum(crafted, crcTable))
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(crafted)))
	f.Add(append(hdr[:], crafted...))
	// A gob fallback envelope.
	f.Add(frameBytes(f, &Envelope{ReqID: 7, Kind: MsgMap, DatasetID: "d", NewID: "e", Op: unregisteredOp{}}))
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

// TestShortCursorFrameRejected: a sketch request whose scroll cursor is
// shorter than its sort order never reaches a worker's scan — the frame
// decoder reports it as corrupt.
func TestShortCursorFrameRejected(t *testing.T) {
	for _, sk := range []sketch.Sketch{
		&sketch.NextKSketch{Order: table.Asc("a").Then("b", false), K: 5, From: table.Row{table.IntValue(1)}},
		&sketch.FindTextSketch{Col: "a", Pattern: "x", Order: table.Asc("a").Then("b", true), From: table.Row{table.IntValue(1)}},
	} {
		data := frameBytes(t, &Envelope{ReqID: 1, Kind: MsgSketch, DatasetID: "d", Sketch: sk})
		fc := newFrameConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		if _, err := fc.recv(); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%T with a short cursor: recv err = %v, want wire.ErrCorrupt", sk, err)
		}
	}
}
