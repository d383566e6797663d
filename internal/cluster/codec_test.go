package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// pipeConns builds a connected frameConn pair over an in-memory buffer
// (a sends, b receives).
func pipeConns() (*frameConn, *frameConn) {
	var buf bytes.Buffer
	a := newFrameConn(&buf)
	b := newFrameConn(&buf)
	return a, b
}

// TestEnvelopeRoundTripAllKinds pushes one envelope of every message
// kind through the binary codec and demands field-exact recovery.
func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	hist := &sketch.Histogram{
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 10, 4),
		Counts:  []int64{1, 2, 3, 4}, Missing: 5, OutOfRange: 6, SampleRate: 1, SampledRows: 21,
	}
	envs := []*Envelope{
		{ReqID: 1, Kind: MsgPing},
		{ReqID: 2, Kind: MsgCancel},
		{ReqID: 3, Kind: MsgLoad, DatasetID: "d", Source: "flights:rows=10"},
		{ReqID: 4, Kind: MsgMap, DatasetID: "d", NewID: "d2", Op: engine.FilterOp{Predicate: `x > 1`}},
		{ReqID: 5, Kind: MsgMap, DatasetID: "d", NewID: "d3", Op: engine.ProjectOp{Cols: []string{"a", "b"}}},
		{ReqID: 6, Kind: MsgMap, DatasetID: "d", NewID: "d4", Op: engine.FilterRangeOp{Col: "x", Min: -1.5, Max: 2.5}},
		{ReqID: 7, Kind: MsgMap, DatasetID: "d", NewID: "d5", Op: engine.DeriveOp{Col: "y", Expr: "x*2"}},
		{ReqID: 8, Kind: MsgSketch, DatasetID: "d", Sketch: &sketch.MisraGriesSketch{Col: "c", K: 7}, NoPartials: true},
		{ReqID: 9, Kind: MsgDrop, DatasetID: "d"},
		{ReqID: 10, Kind: MsgOK, NumLeaves: 12},
		{ReqID: 11, Kind: MsgPartial, Result: hist, Done: 1, Total: 3},
		{ReqID: 11, Kind: MsgFinal, Result: hist, Done: 3, Total: 3},
		{ReqID: 12, Kind: MsgError, Err: "boom", ErrMissing: true},
		{ReqID: 13, Kind: MsgError, Err: "plain"},
	}
	a, b := pipeConns()
	for _, env := range envs {
		if err := a.send(env); err != nil {
			t.Fatalf("send %v: %v", env.Kind, err)
		}
	}
	for _, want := range envs {
		got, err := b.recv()
		if err != nil {
			t.Fatalf("recv %v: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("kind %v diverged:\n sent %+v\n got  %+v", want.Kind, want, got)
		}
	}
}

// TestFrameEncodeZeroAllocs asserts the pooled-buffer encode path
// reaches zero steady-state allocations per frame — the property that
// keeps the 500ms partial tick off the allocator entirely.
func TestFrameEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion runs in the non-race job")
	}
	fc := newFrameConn(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	hist := &sketch.Histogram{
		Buckets: sketch.NumericBuckets(table.KindDouble, 0, 10, 64),
		Counts:  make([]int64, 64), SampleRate: 1,
	}
	env := &Envelope{ReqID: 42, Kind: MsgPartial, Result: hist, Done: 1, Total: 2}
	// Warm up the buffer pool and the request's delta chain.
	for i := 0; i < 8; i++ {
		if err := fc.send(env); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := fc.send(env); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("send allocates %.1f objects/frame in steady state, want 0", avg)
	}
}

// TestDeltaPartialStream drives a partial stream through the wire and
// checks (1) the receiver reconstructs every cumulative snapshot
// bit-exactly, (2) frames after the first actually are deltas, and (3)
// byte-level duplication of any frame leaves the stream correct.
func TestDeltaPartialStream(t *testing.T) {
	snaps := make([]*sketch.Histogram, 6)
	for i := range snaps {
		counts := make([]int64, 32)
		for j := 0; j <= i*5; j++ {
			counts[j%32] = int64(i*100 + j)
		}
		snaps[i] = &sketch.Histogram{
			Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 32),
			Counts:  counts, Missing: int64(i), SampleRate: 1, SampledRows: int64(i * 50),
		}
	}
	var raw bytes.Buffer
	sender := newFrameConn(&raw)
	var sizes []int
	for i, s := range snaps {
		before := raw.Len()
		if err := sender.send(&Envelope{ReqID: 9, Kind: MsgPartial, Result: s, Done: i, Total: len(snaps)}); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, raw.Len()-before)
	}
	for i, sz := range sizes[1:] {
		if sz >= sizes[0]/2 {
			t.Errorf("partial %d: delta frame %dB not < half the full frame %dB", i+1, sz, sizes[0])
		}
	}

	// Replay the byte stream with every frame doubled: the seq chain
	// must absorb the duplicates and still deliver correct snapshots.
	frames := splitFrames(t, raw.Bytes())
	var doubled bytes.Buffer
	for _, f := range frames {
		doubled.Write(f)
		doubled.Write(f)
	}
	recvr := newFrameConn(&doubled)
	for i := 0; i < len(snaps)*2; i++ {
		env, err := recvr.recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := snaps[i/2]
		if !reflect.DeepEqual(env.Result, want) {
			t.Fatalf("frame %d: snapshot diverged under duplication:\n want %+v\n got  %+v", i, want, env.Result)
		}
	}
}

// splitFrames cuts a frame stream at its length prefixes.
func splitFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatal("trailing garbage in frame stream")
		}
		n := int(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
		out = append(out, b[:4+n])
		b = b[4+n:]
	}
	return out
}

// TestDeltaChainRetired asserts the per-request delta state is freed on
// MsgFinal and MsgError on both sides of the wire — a cancelled query
// (the normal Hillview interaction, ending in MsgError) must not leak
// its last snapshot — and that a result-less partial neither advances
// nor corrupts the chain.
func TestDeltaChainRetired(t *testing.T) {
	var buf bytes.Buffer
	tx := newFrameConn(&buf)
	rx := newFrameConn(&buf)
	h := &sketch.Histogram{Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 4), Counts: []int64{1, 2, 3, 4}, SampleRate: 1}
	h2 := &sketch.Histogram{Buckets: h.Buckets, Counts: []int64{2, 2, 3, 9}, SampleRate: 1}
	pump := func(env *Envelope) *Envelope {
		t.Helper()
		if err := tx.send(env); err != nil {
			t.Fatal(err)
		}
		got, err := rx.recv()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Request 1: partial, nil-result partial, delta partial, then final.
	pump(&Envelope{ReqID: 1, Kind: MsgPartial, Result: h, Done: 1, Total: 2})
	pump(&Envelope{ReqID: 1, Kind: MsgPartial, Done: 1, Total: 2}) // result-less
	if got := pump(&Envelope{ReqID: 1, Kind: MsgPartial, Result: h2, Done: 2, Total: 2}); !reflect.DeepEqual(got.Result, h2) {
		t.Fatalf("delta after result-less partial diverged: %+v", got.Result)
	}
	pump(&Envelope{ReqID: 1, Kind: MsgFinal, Result: h2, Done: 2, Total: 2})
	// Request 2: partial then error (a cancel ack).
	pump(&Envelope{ReqID: 2, Kind: MsgPartial, Result: h, Done: 1, Total: 2})
	pump(&Envelope{ReqID: 2, Kind: MsgError, Err: "canceled"})
	if n := len(tx.seqOut); n != 0 {
		t.Fatalf("sender leaks %d delta chains after final/error", n)
	}
	if n := len(rx.seqIn); n != 0 {
		t.Fatalf("receiver leaks %d delta chains after final/error", n)
	}
}

// TestDeltaWithoutBaseErrors decodes a delta frame with no preceding
// full partial: the decoder must surface a clean error, never apply the
// delta to nothing or panic.
func TestDeltaWithoutBaseErrors(t *testing.T) {
	var raw bytes.Buffer
	sender := newFrameConn(&raw)
	h := &sketch.Histogram{Buckets: sketch.NumericBuckets(table.KindDouble, 0, 1, 8), Counts: make([]int64, 8), SampleRate: 1}
	h2 := &sketch.Histogram{Buckets: h.Buckets, Counts: append([]int64(nil), h.Counts...), SampleRate: 1}
	h2.Counts[3] = 7
	for i, r := range []sketch.Result{h, h2} {
		if err := sender.send(&Envelope{ReqID: 4, Kind: MsgPartial, Result: r, Done: i, Total: 2}); err != nil {
			t.Fatal(err)
		}
	}
	frames := splitFrames(t, raw.Bytes())
	recvr := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frames[1]), io.Discard}) // delta only, no base
	_, err := recvr.recv()
	if err == nil || !strings.Contains(err.Error(), "without a base") {
		t.Fatalf("delta without base: want clean error, got %v", err)
	}
}

// reseal recomputes a frame's CRC trailer after a test mutated its
// payload, so the mutation under test — not the checksum — is what the
// decoder rejects.
func reseal(frame []byte) {
	payload := frame[4:]
	body := payload[:len(payload)-frameCRCLen]
	binary.BigEndian.PutUint32(payload[len(body):], crc32.Checksum(body, crcTable))
}

// TestTrailingBytesRejected checks that a frame whose body parses but
// leaves unconsumed bytes — the signature of a spliced/desynchronized
// stream — is rejected instead of delivered as a plausible envelope.
// The splice carries a valid checksum so the inner trailing-bytes
// defense, not the CRC, is what fires.
func TestTrailingBytesRejected(t *testing.T) {
	var raw bytes.Buffer
	fc := newFrameConn(&raw)
	if err := fc.send(&Envelope{ReqID: 1, Kind: MsgOK, NumLeaves: 3}); err != nil {
		t.Fatal(err)
	}
	b := raw.Bytes()
	body := b[4 : len(b)-frameCRCLen]                        // strip length prefix and CRC
	spliced := append(append([]byte{}, body...), 0xde, 0xad) // garbage after the body
	spliced = binary.BigEndian.AppendUint32(spliced, crc32.Checksum(spliced, crcTable))
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(spliced)))
	frame = append(frame, spliced...)
	recvr := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frame), io.Discard})
	if _, err := recvr.recv(); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("spliced frame: want trailing-bytes error, got %v", err)
	}
}

// TestChecksumMismatchRejected flips one body byte of a well-formed
// frame: the CRC trailer must reject it before the body parser can
// deliver a forged envelope. This is the defense the truncation-splice
// failover schedules rely on — a desynchronized stream can forge frames
// that parse cleanly (see the layout comment in proto.go), and only the
// checksum catches those.
func TestChecksumMismatchRejected(t *testing.T) {
	var raw bytes.Buffer
	fc := newFrameConn(&raw)
	if err := fc.send(&Envelope{ReqID: 1, Kind: MsgOK, NumLeaves: 3}); err != nil {
		t.Fatal(err)
	}
	b := raw.Bytes()
	b[len(b)-frameCRCLen-1] ^= 0xff // corrupt the last body byte (NumLeaves)
	recvr := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(b), io.Discard})
	if _, err := recvr.recv(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt frame: want checksum error, got %v", err)
	}
}

// TestVersionSkewRejected checks the decoder rejects a frame with a
// future version byte instead of misparsing it.
func TestVersionSkewRejected(t *testing.T) {
	var raw bytes.Buffer
	fc := newFrameConn(&raw)
	if err := fc.send(&Envelope{ReqID: 1, Kind: MsgPing}); err != nil {
		t.Fatal(err)
	}
	b := raw.Bytes()
	b[4+1] = frameVersion + 1 // version byte sits after the length prefix and magic
	reseal(b)                 // valid CRC, so the version check is what fires
	recvr := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(b), io.Discard})
	if _, err := recvr.recv(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew: want version error, got %v", err)
	}
}

// thirdPartySketch is a sketch type with gob registration but no binary
// codec — the third-party extension case the fallback envelope exists
// for. It wraps a histogram and perturbs nothing.
type thirdPartySketch struct {
	Inner *sketch.HistogramSketch
}

// thirdPartyResult is its result type, equally unknown to the codec.
type thirdPartyResult struct {
	Inner *sketch.Histogram
}

func (s *thirdPartySketch) Name() string { return "thirdparty(" + s.Inner.Name() + ")" }
func (s *thirdPartySketch) Zero() sketch.Result {
	return &thirdPartyResult{Inner: s.Inner.Zero().(*sketch.Histogram)}
}
func (s *thirdPartySketch) Summarize(t *table.Table) (sketch.Result, error) {
	r, err := s.Inner.Summarize(t)
	if err != nil {
		return nil, err
	}
	return &thirdPartyResult{Inner: r.(*sketch.Histogram)}, nil
}
func (s *thirdPartySketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	ra, ok1 := a.(*thirdPartyResult)
	rb, ok2 := b.(*thirdPartyResult)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("thirdparty merge got %T and %T", a, b)
	}
	m, err := s.Inner.Merge(ra.Inner, rb.Inner)
	if err != nil {
		return nil, err
	}
	return &thirdPartyResult{Inner: m.(*sketch.Histogram)}, nil
}

// TestGobFallbackEnvelope runs a codec-less third-party sketch through
// a real worker over TCP: the request and its results must ride
// MsgGobEnvelope frames transparently.
func TestGobFallbackEnvelope(t *testing.T) {
	gob.Register(&thirdPartySketch{})
	gob.Register(&thirdPartyResult{})
	w := NewWorker(storage.NewLoader(engine.Config{}, 0))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Load(ctx, "d", "flights:rows=4000,parts=3"); err != nil {
		t.Fatal(err)
	}
	inner := &sketch.HistogramSketch{Col: "DepDelay", Buckets: sketch.NumericBuckets(table.KindDouble, -60, 600, 16)}
	tp := &thirdPartySketch{Inner: inner}
	partials := 0
	got, err := cl.Sketch(ctx, "d", tp, func(p engine.Partial) { partials++ })
	if err != nil {
		t.Fatalf("third-party sketch over the wire: %v", err)
	}
	want, err := cl.Sketch(ctx, "d", inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(*thirdPartyResult).Inner, want) {
		t.Fatalf("fallback result diverged from typed result:\n fallback %+v\n typed    %+v", got.(*thirdPartyResult).Inner, want)
	}
}

// TestWireStatsCounting checks the per-connection counters move in both
// directions and that codec time is accounted.
func TestWireStatsCounting(t *testing.T) {
	w := NewWorker(storage.NewLoader(engine.Config{}, 0))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Load(ctx, "d", "flights:rows=2000,parts=2"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sketch(ctx, "d", &sketch.RangeSketch{Col: "DepDelay"}, func(engine.Partial) {}); err != nil {
		t.Fatal(err)
	}
	st := cl.WireStats()
	if st.Addr != addr {
		t.Fatalf("Addr = %q, want %q", st.Addr, addr)
	}
	if st.BytesOut == 0 || st.BytesIn == 0 || st.FramesOut < 2 || st.FramesIn < 2 {
		t.Fatalf("counters did not move: %+v", st)
	}
	if st.EncodeNS <= 0 || st.DecodeNS <= 0 {
		t.Fatalf("codec time not accounted: %+v", st)
	}
	if st.BytesIn != cl.BytesReceived() || st.BytesOut != cl.BytesSent() {
		t.Fatalf("byte counters disagree with legacy accessors: %+v", st)
	}
}

// TestRequestReplayDeduped verifies the worker drops a byte-identical
// replay of an in-flight request instead of starting a second partial
// stream under the same request ID.
func TestRequestReplayDeduped(t *testing.T) {
	// The dataset parks the first request until released, so the replay
	// provably arrives while it is in flight (a scan of a small table
	// could finish first, and a replay after completion is a new request).
	ds := newBlockingDataSet("d")
	w := NewWorker(func(id, source string) (engine.IDataSet, error) { return ds, nil })
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := newFrameConn(conn)
	if err := fc.send(&Envelope{ReqID: 1, Kind: MsgLoad, DatasetID: "d", Source: "any:"}); err != nil {
		t.Fatal(err)
	}
	if env, err := fc.recv(); err != nil || env.Kind != MsgOK {
		t.Fatalf("load: %v %v", env, err)
	}
	// ping round-trips a request the worker reads after everything sent
	// before it; any frame for another request would arrive first.
	ping := func(id uint64) {
		t.Helper()
		if err := fc.send(&Envelope{ReqID: id, Kind: MsgPing}); err != nil {
			t.Fatal(err)
		}
		env, err := fc.recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.ReqID != id || env.Kind != MsgOK {
			t.Fatalf("replayed request produced extra traffic: %+v", env)
		}
	}
	// Send the same sketch request twice, byte for byte.
	req := &Envelope{ReqID: 2, Kind: MsgSketch, DatasetID: "d",
		Sketch: &sketch.HistogramSketch{Col: "DepDelay", Buckets: sketch.NumericBuckets(table.KindDouble, -60, 600, 8)}}
	if err := fc.send(req); err != nil {
		t.Fatal(err)
	}
	if err := fc.send(req); err != nil {
		t.Fatal(err)
	}
	ping(3) // the worker has read both copies; the first is still parked
	close(ds.release)
	if env, err := fc.recv(); err != nil || env.ReqID != 2 || env.Kind != MsgFinal {
		t.Fatalf("final: %+v %v", env, err)
	}
	// A deduped replay produces exactly one final; a second stream
	// would send another within the connection's ordered stream.
	ping(4)
}
