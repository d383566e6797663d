package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/wire"
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
		{ReqID: 6, Kind: MsgMap, DatasetID: "d", NewID: "d4", Op: engine.FilterRangeOp{Col: "x", Min: -1.5, Max: 2.5}},
		{ReqID: 7, Kind: MsgMap, DatasetID: "d", NewID: "d5", Op: engine.DeriveOp{Col: "y", Expr: "x*2"}},
		{ReqID: 8, Kind: MsgSketch, DatasetID: "d", Sketch: &sketch.MisraGriesSketch{Col: "c", K: 7}, NoPartials: true},
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
	// Warm up the buffer pool.
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

// teeTransport is TCP that copies every byte the root reads into in,
// so a test can decode the worker→root frame stream afterwards.
type teeTransport struct{ in *lockedBuffer }

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) write(p []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

func (tr teeTransport) Dial(addr string) (net.Conn, error) {
	c, err := TCPTransport{}.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &teeConn{Conn: c, in: tr.in}, nil
}

type teeConn struct {
	net.Conn
	in *lockedBuffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.write(p[:n])
	return n, err
}

// TestWorkerSendsCompleteResultOnce: a worker streams window partials
// of a histogram and then exactly one MsgFinal; the complete result
// (Done == Total) travels in the final only.
func TestWorkerSendsCompleteResultOnce(t *testing.T) {
	// Parallelism 1 folds one partition at a time, so the first window
	// partial is cut after one of the three partitions.
	w := NewWorker(storage.NewLoader(engine.Config{Parallelism: 1}, 0, nil))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	in := new(lockedBuffer)
	cl, err := DialTransport(teeTransport{in: in}, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Load(ctx, "d", "flights:rows=4000,parts=3"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sketch(ctx, "d", codecTestHistogram, func(engine.Partial) {}); err != nil {
		t.Fatal(err)
	}
	// The final has been read, so every frame of the request is in in.
	rx := newFrameConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(in.bytes()), io.Discard})
	var partials, finals int
	for {
		env, err := rx.recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch env.Kind {
		case MsgPartial:
			if finals > 0 {
				t.Fatalf("partial after the final: %+v", env)
			}
			if env.Done == env.Total {
				t.Fatalf("worker sent a completion partial (done %d of %d)", env.Done, env.Total)
			}
			partials++
		case MsgFinal:
			if env.Done != env.Total || env.Total != 3 {
				t.Fatalf("final at done %d of %d, want 3 of 3", env.Done, env.Total)
			}
			finals++
		}
	}
	if partials < 1 || finals != 1 {
		t.Fatalf("got %d partials and %d finals, want at least 1 and exactly 1", partials, finals)
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
	want := fmt.Sprintf("unsupported frame version %d; this build speaks %d", frameVersion+1, frameVersion)
	if _, err := recvr.recv(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("version skew: err = %v, want %q", err, want)
	}
}

// codecLessSketch is a sketch type with no wire codec: a histogram
// under another name.
type codecLessSketch struct{ *sketch.HistogramSketch }

// startTCPWorker serves one worker on loopback with dataset "d" loaded
// through a client dialed over tr.
func startTCPWorker(t *testing.T, tr Transport) (*Client, string) {
	t.Helper()
	w := NewWorker(storage.NewLoader(engine.Config{}, 0, nil))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	cl, err := DialTransport(tr, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Load(context.Background(), "d", "flights:rows=4000,parts=3"); err != nil {
		t.Fatal(err)
	}
	return cl, addr
}

var codecTestHistogram = &sketch.HistogramSketch{Col: "DepDelay", Buckets: sketch.NumericBuckets(table.KindDouble, -60, 600, 16)}

// TestCodecLessSketchIsEncodeError: a sketch without a wire codec fails
// at the root with an encode error naming its type, before anything is
// written, and the connection keeps serving.
func TestCodecLessSketchIsEncodeError(t *testing.T) {
	cl, _ := startTCPWorker(t, TCPTransport{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sent := cl.WireStats().FramesOut
	_, err := cl.Sketch(ctx, "d", &codecLessSketch{codecTestHistogram}, nil)
	if err == nil || !strings.Contains(err.Error(), "*cluster.codecLessSketch has no wire codec") {
		t.Fatalf("codec-less sketch: err = %v, want an encode error naming the type", err)
	}
	if errors.Is(err, ErrWorkerLost) || ctx.Err() != nil {
		t.Fatalf("encode error marked the worker lost or ran out the deadline: %v", err)
	}
	if got := cl.WireStats().FramesOut; got != sent {
		t.Errorf("a frame was written for the codec-less sketch (%d → %d)", sent, got)
	}
	if _, err := cl.Sketch(ctx, "d", codecTestHistogram, nil); err != nil {
		t.Fatalf("next histogram on the same client: %v", err)
	}
}

// tagRewriteTransport is TCP whose next MsgSketch frame, once armed,
// carries sketch tag tag under a valid checksum: a request body the
// worker cannot decode on a stream still in sync.
type tagRewriteTransport struct {
	armed *atomic.Bool
	tag   byte
}

const (
	unregisteredSketchTag = 200
	// retiredSketchTag was the PCA sketch's; it is never reused.
	retiredSketchTag = 15
)

func (tr tagRewriteTransport) Dial(addr string) (net.Conn, error) {
	c, err := TCPTransport{}.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tagRewriteConn{Conn: c, armed: tr.armed, tag: tr.tag}, nil
}

type tagRewriteConn struct {
	net.Conn
	armed *atomic.Bool
	tag   byte
}

// Write rewrites one whole frame (frameConn.send writes one per call).
func (c *tagRewriteConn) Write(p []byte) (int, error) {
	if p[6] != byte(MsgSketch) || !c.armed.CompareAndSwap(true, false) {
		return c.Conn.Write(p)
	}
	frame := append([]byte(nil), p...)
	if err := setSketchTag(frame, c.tag); err != nil {
		return 0, err
	}
	return c.Conn.Write(frame)
}

// setSketchTag overwrites the sketch tag of one sealed MsgSketch frame
// (length, magic, version, kind, flags, reqID, datasetID, sketch tag)
// and reseals it.
func setSketchTag(frame []byte, tag byte) error {
	_, rest, err := wire.ConsumeUvarint(frame[8:])
	if err == nil {
		_, rest, err = wire.ConsumeString(rest)
	}
	if err != nil {
		return err
	}
	rest[0] = tag
	reseal(frame)
	return nil
}

// TestUndecodableRequestFailsAlone: a request whose body the worker
// cannot decode — a sketch tag never registered, or the retired PCA
// tag — is answered with an error naming the tag, and the same
// connection then answers a histogram — on a bare client, and through a
// Cluster, where the error is a plain query error that loses no group
// and costs no reconnect.
func TestUndecodableRequestFailsAlone(t *testing.T) {
	for _, tag := range []byte{unregisteredSketchTag, retiredSketchTag} {
		t.Run(fmt.Sprintf("tag=%d", tag), func(t *testing.T) { checkUndecodableRequestFailsAlone(t, tag) })
	}
}

func checkUndecodableRequestFailsAlone(t *testing.T, tag byte) {
	armed := new(atomic.Bool)
	tr := tagRewriteTransport{armed: armed, tag: tag}
	cl, addr := startTCPWorker(t, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wantErr := fmt.Sprintf("unknown sketch tag %d", tag)

	armed.Store(true)
	_, err := cl.Sketch(ctx, "d", codecTestHistogram, nil)
	if err == nil || !strings.Contains(err.Error(), wantErr) || errors.Is(err, ErrWorkerLost) {
		t.Fatalf("undecodable request: err = %v, want a worker error containing %q", err, wantErr)
	}
	if _, err := cl.Sketch(ctx, "d", codecTestHistogram, nil); err != nil {
		t.Fatalf("next histogram on the same client: %v", err)
	}

	c, err := ConnectOptions(tr, []string{addr}, engine.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	root := engine.NewRoot(c.Loader())
	if _, err := root.Load("fl", "flights:rows=4000,parts=3"); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if _, err := root.RunSketch(ctx, "fl", codecTestHistogram, nil); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("undecodable query through the cluster: err = %v, want %q", err, wantErr)
	}
	if _, err := root.RunSketch(ctx, "fl", codecTestHistogram, nil); err != nil {
		t.Fatalf("next histogram through the cluster: %v", err)
	}
	if st := c.Stats(); st.GroupsLost != 0 || st.Reconnects != 0 {
		t.Errorf("a bad request body cost the cluster: groupsLost=%d reconnects=%d", st.GroupsLost, st.Reconnects)
	}
}

// TestWireStatsCounting checks the per-connection counters move in both
// directions and that codec time is accounted.
func TestWireStatsCounting(t *testing.T) {
	w := NewWorker(storage.NewLoader(engine.Config{}, 0, nil))
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
	if st.BytesIn != cl.BytesReceived() {
		t.Fatalf("byte counters disagree with BytesReceived: %+v", st)
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
