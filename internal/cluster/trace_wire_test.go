package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/wire"
)

// TestTraceFrameRoundTrip checks the flagTrace tail: a traced request
// carries its trace ID, a traced final carries the worker's span list,
// and both survive the frame codec intact.
func TestTraceFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	spans := []obs.Span{
		{Name: "worker.sketch", Start: 10 * time.Microsecond, Dur: 3 * time.Millisecond},
		{Name: "scan.leaf", Start: 15 * time.Microsecond, Dur: 2 * time.Millisecond, Note: "leaf=0"},
		{Name: "engine.cache_hit", Start: 20 * time.Microsecond}, // zero-dur annotation
	}
	in := []*Envelope{
		{ReqID: 1, Kind: MsgSketch, DatasetID: "d", TraceID: "00aa11bb22cc33dd",
			Sketch: &sketch.RangeSketch{Col: "x"}},
		{ReqID: 1, Kind: MsgFinal, Done: 2, Total: 2, TraceID: "00aa11bb22cc33dd", Spans: spans,
			Result: &sketch.Histogram{Counts: []int64{1, 2}, SampleRate: 1}},
	}
	for _, env := range in {
		if err := fc.send(env); err != nil {
			t.Fatal(err)
		}
	}
	req, err := fc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if req.TraceID != "00aa11bb22cc33dd" || len(req.Spans) != 0 {
		t.Fatalf("request trace = %q spans = %d", req.TraceID, len(req.Spans))
	}
	fin, err := fc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if fin.TraceID != "00aa11bb22cc33dd" {
		t.Fatalf("final trace = %q", fin.TraceID)
	}
	if len(fin.Spans) != len(spans) {
		t.Fatalf("spans = %d, want %d", len(fin.Spans), len(spans))
	}
	for i, sp := range fin.Spans {
		if sp != spans[i] {
			t.Errorf("span %d = %+v, want %+v", i, sp, spans[i])
		}
	}
}

// TestUntracedFrameFormatUnchanged pins the backward-compat contract:
// the trace section is append-only, so an untraced frame is byte-for-
// byte what the pre-trace protocol emitted — the traced frame differs
// only by the flag bit, the appended tail, and the reseal. Old peers
// that never set flagTrace therefore interoperate unchanged.
func TestUntracedFrameFormatUnchanged(t *testing.T) {
	env := func(traced bool) *Envelope {
		e := &Envelope{
			ReqID: 9, Kind: MsgFinal, Done: 4, Total: 4,
			Result: &sketch.Histogram{Counts: []int64{5, 0, 7}, SampleRate: 1},
		}
		if traced {
			e.TraceID = "feedfacecafebeef"
			e.Spans = []obs.Span{{Name: "worker.sketch", Dur: time.Millisecond}}
		}
		return e
	}
	plain := frameBytes(t, env(false))
	traced := frameBytes(t, env(true))

	if plain[7]&flagTrace != 0 {
		t.Fatal("untraced frame has flagTrace set")
	}
	if traced[7]&flagTrace == 0 {
		t.Fatal("traced frame missing flagTrace")
	}
	if traced[7]&^flagTrace != plain[7] {
		t.Fatalf("flags differ beyond flagTrace: %08b vs %08b", traced[7], plain[7])
	}
	// Identical payload up to the start of the trace tail (both CRCs and
	// the length word excluded; the flags byte handled above).
	plainBody := plain[8 : len(plain)-frameCRCLen]
	tracedBody := traced[8 : len(traced)-frameCRCLen]
	if len(tracedBody) <= len(plainBody) {
		t.Fatalf("traced frame not longer: %d vs %d", len(tracedBody), len(plainBody))
	}
	if !bytes.Equal(tracedBody[:len(plainBody)], plainBody) {
		t.Fatal("trace section is not append-only: shared prefix differs")
	}

	// The flag-unset frame decodes with no trace fields populated.
	fc := newFrameConn(bytes.NewBuffer(plain))
	out, err := fc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != "" || out.Spans != nil {
		t.Fatalf("untraced decode grew trace fields: id=%q spans=%d", out.TraceID, len(out.Spans))
	}
}

// TestTraceSectionHugeSpanCountRejected feeds a frame whose trace tail
// claims 2^40 spans over a few bytes: the count must be validated
// against the bytes remaining before any allocation.
func TestTraceSectionHugeSpanCountRejected(t *testing.T) {
	frame := craftedTraceFrame()
	fc := newFrameConn(bytes.NewBuffer(frame))
	if _, err := fc.recv(); err == nil {
		t.Fatal("huge span count accepted")
	}
}

// craftedTraceFrame builds a sealed MsgPing frame with flagTrace whose
// tail declares 2^40 spans over no payload (sealed with a valid CRC so
// the span-count validation — not the checksum — is what it probes).
func craftedTraceFrame() []byte {
	payload := []byte{frameMagic, frameVersion, byte(MsgPing), flagTrace}
	payload = wire.AppendUvarint(payload, 3)     // reqID
	payload = wire.AppendString(payload, "ab")   // trace ID
	payload = wire.AppendUvarint(payload, 1<<40) // span count over no bytes
	payload = binary.BigEndian.AppendUint32(payload, crc32.Checksum(payload, crcTable))
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// TestTraceEndToEndWorkerStitch runs a traced sketch against a real
// worker and checks the root trace ends up with the wire.call span plus
// the worker-side spans shipped back and stitched under it.
func TestTraceEndToEndWorkerStitch(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := cl.Load(ctx, "fl", "flights:rows=5000,parts=2,seed=2"); err != nil {
		t.Fatal(err)
	}
	sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 10)}
	if _, err := cl.Sketch(ctx, "fl", sk, nil); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	var call, worker *obs.Span
	for i := range spans {
		switch spans[i].Name {
		case "wire.call":
			call = &spans[i]
		case "worker.sketch":
			worker = &spans[i]
		}
	}
	if call == nil {
		t.Fatalf("no wire.call span in %+v", spans)
	}
	if addr := cl.WireStats().Addr; call.Note != addr {
		t.Errorf("wire.call note = %q, want worker addr %q", call.Note, addr)
	}
	if worker == nil {
		t.Fatalf("no stitched worker.sketch span in %+v", spans)
	}
	if worker.Start < call.Start {
		t.Errorf("worker span not shifted under wire.call: %v < %v", worker.Start, call.Start)
	}
	if worker.Dur <= 0 {
		t.Errorf("worker span has no duration: %+v", *worker)
	}
}

// TestUntracedSketchShipsNoTrace checks the zero-cost path: without a
// trace in the context, request and final frames carry no trace fields
// and no flagTrace bit.
func TestUntracedSketchShipsNoTrace(t *testing.T) {
	c, _ := startWorkers(t, 1)
	cl := c.Clients()[0]
	ctx := context.Background()
	if _, err := cl.Load(ctx, "fl", "flights:rows=2000,parts=1,seed=4"); err != nil {
		t.Fatal(err)
	}
	sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 10)}
	if _, err := cl.Sketch(ctx, "fl", sk, nil); err != nil {
		t.Fatal(err)
	}
	// No spans accumulated anywhere there is no trace to hold them; the
	// nil-trace handles make the whole path a few nil checks.
	if tr := obs.TraceFrom(ctx); tr.ID() != "" || len(tr.Spans()) != 0 {
		t.Fatal("untraced context grew a trace")
	}
}
