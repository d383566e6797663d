package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// MsgKind discriminates protocol messages. The numbers are wire
// format: each kind keeps its byte.
type MsgKind uint8

const (
	// MsgLoad asks the worker to load (or reload) a dataset from a
	// storage source.
	MsgLoad MsgKind = 1
	// MsgMap derives a new dataset from an existing one.
	MsgMap MsgKind = 2
	// MsgSketch runs a sketch, streaming MsgPartial frames and ending
	// with MsgFinal.
	MsgSketch MsgKind = 3
	// MsgCancel aborts an in-flight request (high priority: handled by
	// the connection reader, not queued behind work).
	MsgCancel MsgKind = 4
	// MsgPing checks liveness.
	MsgPing MsgKind = 6
	// MsgOK acknowledges Load/Map/Ping.
	MsgOK MsgKind = 7
	// MsgPartial carries one partial result of a running sketch.
	MsgPartial MsgKind = 8
	// MsgFinal carries the final result of a sketch.
	MsgFinal MsgKind = 9
	// MsgError reports request failure.
	MsgError MsgKind = 10
	// Kinds 5 and 11 are retired: they decode as unknown kinds, and a
	// new kind takes the next free number, 12.
)

// Envelope is the single frame type; fields are populated per Kind.
// One struct keeps the protocol easy to evolve. Its sketch, map op and
// result travel through their registered binary codecs: a type without
// one does not cross the wire.
type Envelope struct {
	ReqID uint64
	Kind  MsgKind

	// Requests.
	DatasetID string
	Source    string        // MsgLoad
	NewID     string        // MsgMap
	Op        engine.MapOp  // MsgMap (engine.AppendOpWire)
	Sketch    sketch.Sketch // MsgSketch (sketch.RegisterSketch)
	// NoPartials suppresses MsgPartial streaming for sketches whose
	// caller only wants the final summary (preparation-phase sketches,
	// scroll-bar quantiles): progressive updates exist for renderable
	// results, and resending a cumulative summary nobody draws wastes
	// exactly the bandwidth vizketches are designed to save.
	NoPartials bool

	// Responses.
	Result     sketch.Result // MsgPartial, MsgFinal
	Done       int           // MsgPartial, MsgFinal
	Total      int           // MsgPartial, MsgFinal
	NumLeaves  int           // MsgOK for Load/Map
	Err        string        // MsgError
	ErrMissing bool          // MsgError: dataset was soft-state and is gone

	// Tracing (flagTrace, appended after the body so old peers decode
	// flag-unset frames unchanged). TraceID rides MsgSketch to carry
	// the root's trace to the worker; Spans ride MsgFinal back with
	// the worker-side stage breakdown, which the client stitches into
	// the root trace.
	TraceID string     // MsgSketch, MsgFinal
	Spans   []obs.Span // MsgFinal
}

// Binary frame layout (after the 4-byte big-endian outer length):
//
//	magic (0x48) | version (0x02) | kind | flags | uvarint reqID | body | crc32c
//
// Every frame is self-contained: no state spans frames, and neither end
// of a connection keeps per-request codec state, so any frame decodes
// in isolation and byte-level duplication or reordering of whole frames
// can never corrupt the decoder (the property the seed's stateful
// per-connection gob stream lacked). A partial is a full cumulative
// snapshot; the final is the one frame carrying a request's complete
// result.
//
// The trailing CRC-32C covers everything between the outer length and
// itself. It exists for stream desynchronization, not for TCP bit rot:
// when a frame is truncated mid-write (peer crash, scripted fault) and
// the connection keeps delivering bytes, the dead frame's outer length
// swallows the next frames' bytes as its body tail. Such a splice keeps
// the original magic/version/kind/reqID prefix and can parse to a
// plausible envelope with garbage field values — the trailing-bytes
// check below cannot catch a splice whose parse happens to consume the
// length exactly (a truncated MsgOK whose missing NumLeaves varint is
// "completed" by the next frame's 0x00 length byte decodes as zero
// leaves). The checksum turns every such forgery into a decode error,
// which fails the connection and lets the replicated query path retry
// the range on another replica instead of folding a corrupt summary.
const (
	frameMagic   = 0x48 // 'H'
	frameVersion = 0x02
	frameCRCLen  = 4
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by every connection.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame flag bits. Bit 0 is retired: version 0x01 used it for delta
// partials.
const (
	// flagNoPartials carries Envelope.NoPartials on MsgSketch.
	flagNoPartials byte = 1 << 1
	// flagErrMissing carries Envelope.ErrMissing on MsgError.
	flagErrMissing byte = 1 << 2
	// flagTrace marks a frame carrying an appended trace section
	// (TraceID + spans) after its body. The section is append-only:
	// frames without the flag are byte-identical to the pre-trace
	// format, so peers that never set it interoperate unchanged.
	flagTrace byte = 1 << 3
)

// maxFrameSize bounds a frame; summaries are small by construction
// (paper §4.2), so anything near this limit indicates a bug, not data.
const maxFrameSize = 1 << 28

// defaultFrameTimeout bounds how long a frame may take to finish
// arriving once its first byte has been read. Idle connections wait
// forever — gaps *between* frames are normal — but a frame that starts
// and never completes (mid-frame truncation, a peer crashing inside a
// write) used to wedge the reader until the query deadline; now it
// surfaces as a read error within this window. Summaries are KB-sized,
// so any frame needing longer than this mid-flight indicates a dead or
// byzantine peer, not data volume.
const defaultFrameTimeout = 10 * time.Second

// errWriteFailed marks frame write failures, so callers can tell a dead
// connection (retryable on a replica) from a deterministic encode error.
var errWriteFailed = errors.New("frame write failed")

// maxRetainedBuf caps the codec buffers kept across frames (the pooled
// encode buffers and each connection's read buffer). A rare multi-MB
// frame may allocate what it needs, but steady-state frames are
// KB-sized, and retaining a one-off giant buffer for a connection's
// lifetime would pin dead memory on every long-lived cluster process.
const maxRetainedBuf = 1 << 20

// frameBufPool recycles encode buffers across connections: a frame is
// encoded into a pooled buffer, written with a single Write, and the
// buffer returned — zero steady-state allocations per sent frame
// (asserted by TestFrameEncodeZeroAllocs).
var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

// frameConn frames envelopes with a uint32 big-endian length prefix and
// counts bytes, frames, and codec nanoseconds in each direction.
// Writers are serialized; there is a single reader goroutine per
// connection. Encoding is the stateless binary codec above; an envelope
// carrying a type without a registered codec fails to encode before
// anything is written.
type frameConn struct {
	rw      io.ReadWriter
	in, out atomic.Int64
	// deadliner is rw when it supports read deadlines (net.Conn does;
	// the in-memory buffers of unit tests do not), enabling the
	// mid-frame watchdog. readTimeout tunes it (0 = default, negative =
	// disabled); it must be set before the first recv.
	deadliner   interface{ SetReadDeadline(time.Time) error }
	readTimeout time.Duration
	// frame and codec-time counters, surfaced through WireStats.
	framesIn, framesOut atomic.Int64
	encodeNS, decodeNS  atomic.Int64

	wmu sync.Mutex

	// Reader state: single reader per connection, no lock.
	readBuf []byte
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	c := &frameConn{rw: rw}
	c.deadliner, _ = rw.(interface{ SetReadDeadline(time.Time) error })
	return c
}

// send encodes env as one self-contained length-prefixed frame and
// writes it with a single Write call. Encoding needs no connection
// state, so only the write is serialized.
func (c *frameConn) send(env *Envelope) error {
	start := time.Now()
	fb := frameBufPool.Get().(*frameBuf)
	buf := append(fb.b[:0], 0, 0, 0, 0) // outer length placeholder
	buf, err := appendFrame(buf, env)
	if err != nil {
		if cap(buf) <= maxRetainedBuf {
			fb.b = buf
			frameBufPool.Put(fb)
		}
		return err
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[4:], crcTable))
	if len(buf)-4 > maxFrameSize {
		return fmt.Errorf("cluster: encode: frame of %d bytes exceeds limit", len(buf)-4)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	c.encodeNS.Add(time.Since(start).Nanoseconds())
	c.wmu.Lock()
	_, werr := c.rw.Write(buf)
	c.wmu.Unlock()
	if cap(buf) <= maxRetainedBuf {
		fb.b = buf
		frameBufPool.Put(fb)
	}
	if werr != nil {
		return fmt.Errorf("cluster: %w: %v", errWriteFailed, werr)
	}
	c.out.Add(int64(len(buf)))
	c.framesOut.Add(1)
	return nil
}

// appendFrame appends the frame payload (header + body) for env.
func appendFrame(buf []byte, env *Envelope) ([]byte, error) {
	flags := byte(0)
	if env.NoPartials {
		flags |= flagNoPartials
	}
	if env.ErrMissing {
		flags |= flagErrMissing
	}
	traced := env.TraceID != "" || len(env.Spans) > 0
	if traced {
		flags |= flagTrace
	}
	buf = append(buf, frameMagic, frameVersion, byte(env.Kind), flags)
	buf = wire.AppendUvarint(buf, env.ReqID)
	switch env.Kind {
	case MsgLoad:
		buf = wire.AppendString(buf, env.DatasetID)
		buf = wire.AppendString(buf, env.Source)
	case MsgMap:
		buf = wire.AppendString(buf, env.DatasetID)
		buf = wire.AppendString(buf, env.NewID)
		var ok bool
		if buf, ok = engine.AppendOpWire(buf, env.Op); !ok {
			return buf, fmt.Errorf("cluster: encode: op %T has no wire codec", env.Op)
		}
	case MsgSketch:
		buf = wire.AppendString(buf, env.DatasetID)
		var ok bool
		if buf, ok = sketch.AppendSketchWire(buf, env.Sketch); !ok {
			return buf, fmt.Errorf("cluster: encode: sketch %T has no wire codec", env.Sketch)
		}
	case MsgCancel, MsgPing:
	case MsgOK:
		buf = wire.AppendUvarint(buf, uint64(env.NumLeaves))
	case MsgPartial, MsgFinal:
		buf = wire.AppendUvarint(buf, uint64(env.Done))
		buf = wire.AppendUvarint(buf, uint64(env.Total))
		if env.Result == nil {
			buf = append(buf, 0) // tag 0: no result
			break
		}
		var ok bool
		if buf, ok = sketch.AppendResultWire(buf, env.Result); !ok {
			return buf, fmt.Errorf("cluster: encode: result %T has no wire codec", env.Result)
		}
	case MsgError:
		buf = wire.AppendString(buf, env.Err)
	default:
		return buf, fmt.Errorf("cluster: encode: unknown kind %d", env.Kind)
	}
	if traced {
		buf = appendTraceSection(buf, env)
	}
	return buf, nil
}

// appendTraceSection writes the flagTrace tail: the trace ID plus the
// span list (name, start offset, duration — nanoseconds as uvarints —
// and note per span).
func appendTraceSection(buf []byte, env *Envelope) []byte {
	buf = wire.AppendString(buf, env.TraceID)
	buf = wire.AppendUvarint(buf, uint64(len(env.Spans)))
	for _, sp := range env.Spans {
		buf = wire.AppendString(buf, sp.Name)
		buf = wire.AppendUvarint(buf, uint64(max64(sp.Start.Nanoseconds(), 0)))
		buf = wire.AppendUvarint(buf, uint64(max64(sp.Dur.Nanoseconds(), 0)))
		buf = wire.AppendString(buf, sp.Note)
	}
	return buf
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// consumeTraceSection parses the flagTrace tail into env. The span
// count is validated against the bytes remaining before any allocation
// (each span costs at least four bytes on the wire) — the HVC-reader
// hardening rule applied to the trace field.
func consumeTraceSection(env *Envelope, b []byte) ([]byte, error) {
	var err error
	if env.TraceID, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	n, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return b, err
	}
	if n > uint64(len(b)) {
		return b, wire.Corruptf("trace section claims %d spans over %d bytes", n, len(b))
	}
	if n == 0 {
		return b, nil
	}
	env.Spans = make([]obs.Span, 0, n)
	for i := uint64(0); i < n; i++ {
		var sp obs.Span
		var start, dur uint64
		if sp.Name, b, err = wire.ConsumeString(b); err != nil {
			return b, err
		}
		if start, b, err = wire.ConsumeUvarint(b); err != nil {
			return b, err
		}
		if dur, b, err = wire.ConsumeUvarint(b); err != nil {
			return b, err
		}
		if sp.Note, b, err = wire.ConsumeString(b); err != nil {
			return b, err
		}
		sp.Start = time.Duration(start)
		sp.Dur = time.Duration(dur)
		env.Spans = append(env.Spans, sp)
	}
	return b, nil
}

// recv reads one frame and decodes it. Every frame is self-contained,
// so a frame decodes (or fails cleanly) regardless of what preceded it.
//
// The read is watchdogged: the first header byte may block forever (an
// idle connection between frames is the steady state), but once a frame
// has started, its remaining bytes must arrive within readTimeout — a
// half-written frame (peer crash mid-write, scripted truncation) then
// surfaces as a prompt error instead of wedging the connection's single
// reader until the query deadline.
func (c *frameConn) recv() (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.rw, hdr[:1]); err != nil {
		return nil, err
	}
	if stop := c.armWatchdog(); stop != nil {
		defer stop()
	}
	if _, err := io.ReadFull(c.rw, hdr[1:]); err != nil {
		return nil, c.watchdogErr(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	if cap(c.readBuf) < int(n) {
		c.readBuf = make([]byte, n)
	}
	payload := c.readBuf[:n]
	if _, err := io.ReadFull(c.rw, payload); err != nil {
		return nil, c.watchdogErr(err)
	}
	c.in.Add(int64(n) + 4)
	c.framesIn.Add(1)
	if len(payload) < frameCRCLen {
		return nil, fmt.Errorf("cluster: frame of %d bytes is shorter than its checksum", len(payload))
	}
	body := payload[:len(payload)-frameCRCLen]
	want := binary.BigEndian.Uint32(payload[len(payload)-frameCRCLen:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("cluster: frame checksum mismatch (spliced or corrupt stream): got %08x want %08x", got, want)
	}
	start := time.Now()
	env, err := decodeFrame(body)
	c.decodeNS.Add(time.Since(start).Nanoseconds())
	if cap(c.readBuf) > maxRetainedBuf {
		// Decoded values never alias the read buffer, so a one-off giant
		// frame's buffer can be released immediately.
		c.readBuf = nil
	}
	return env, err
}

// armWatchdog sets the mid-frame read deadline and returns the function
// clearing it, or nil when the connection has no deadline support or
// the watchdog is disabled.
func (c *frameConn) armWatchdog() func() {
	if c.deadliner == nil || c.readTimeout < 0 {
		return nil
	}
	timeout := c.readTimeout
	if timeout == 0 {
		timeout = defaultFrameTimeout
	}
	if c.deadliner.SetReadDeadline(time.Now().Add(timeout)) != nil {
		return nil
	}
	return func() { c.deadliner.SetReadDeadline(time.Time{}) }
}

// watchdogErr annotates a deadline expiry so the failure reads as what
// it is: a frame that started and never finished.
func (c *frameConn) watchdogErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("cluster: frame stalled mid-read (truncated or dead peer): %w", err)
	}
	return err
}

// decodeFrame parses one frame payload.
func decodeFrame(payload []byte) (*Envelope, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("cluster: decode: frame of %d bytes is shorter than a header", len(payload))
	}
	if payload[0] != frameMagic {
		return nil, fmt.Errorf("cluster: decode: bad magic 0x%02x", payload[0])
	}
	if payload[1] != frameVersion {
		return nil, fmt.Errorf("cluster: decode: unsupported frame version %d; this build speaks %d", payload[1], frameVersion)
	}
	kind := MsgKind(payload[2])
	flags := payload[3]
	reqID, b, err := wire.ConsumeUvarint(payload[4:])
	if err != nil {
		return nil, fmt.Errorf("cluster: decode: %w", err)
	}
	env := &Envelope{ReqID: reqID, Kind: kind}
	env.NoPartials = flags&flagNoPartials != 0
	env.ErrMissing = flags&flagErrMissing != 0
	switch kind {
	case MsgLoad:
		if env.DatasetID, b, err = wire.ConsumeString(b); err == nil {
			env.Source, b, err = wire.ConsumeString(b)
		}
	case MsgMap:
		if env.DatasetID, b, err = wire.ConsumeString(b); err == nil {
			if env.NewID, b, err = wire.ConsumeString(b); err == nil {
				env.Op, b, err = engine.DecodeOpWire(b)
			}
		}
	case MsgSketch:
		if env.DatasetID, b, err = wire.ConsumeString(b); err == nil {
			env.Sketch, b, err = sketch.DecodeSketchWire(b)
		}
	case MsgCancel, MsgPing:
	case MsgOK:
		var v uint64
		v, b, err = wire.ConsumeUvarint(b)
		env.NumLeaves = int(v)
	case MsgPartial, MsgFinal:
		b, err = decodeResult(env, b)
	case MsgError:
		env.Err, b, err = wire.ConsumeString(b)
	default:
		return nil, fmt.Errorf("cluster: decode: unknown frame kind %d", kind)
	}
	if err == nil && flags&flagTrace != 0 {
		// The trace section sits between the body and the checksum; it
		// must be consumed here or the trailing-bytes check below would
		// reject every traced frame.
		b, err = consumeTraceSection(env, b)
	}
	if err == nil && len(b) != 0 {
		// A well-formed frame is consumed exactly; leftover bytes must
		// surface as corruption, never as a structurally plausible
		// envelope with garbage values.
		err = wire.Corruptf("%d trailing bytes", len(b))
	}
	if err != nil {
		return nil, &bodyError{reqID: reqID, err: fmt.Errorf("cluster: decode: kind %d request %d: %w", kind, reqID, err)}
	}
	return env, nil
}

// bodyError is a frame that passed every framing check (length,
// checksum, magic, version, known kind) but whose body does not decode:
// an unknown sketch, result or op tag, a corrupt member, trailing
// bytes. The checksum proves the stream is still in sync, so a worker
// answers the request with an error and keeps reading; the root, which
// cannot tell whose partial went bad, still drops the connection.
type bodyError struct {
	reqID uint64
	err   error
}

func (e *bodyError) Error() string { return e.err.Error() }
func (e *bodyError) Unwrap() error { return e.err }

// decodeResult parses the body of a partial or final frame: progress,
// then a result tag and body (tag 0: no result).
func decodeResult(env *Envelope, b []byte) ([]byte, error) {
	done, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return b, err
	}
	total, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return b, err
	}
	env.Done, env.Total = int(done), int(total)
	if len(b) > 0 && b[0] == 0 {
		return b[1:], nil
	}
	env.Result, b, err = sketch.DecodeResultWire(b)
	return b, err
}

// BytesIn returns bytes received on this connection.
func (c *frameConn) BytesIn() int64 { return c.in.Load() }

// WireStats is one connection's transport counters: bytes and frames in
// each direction plus cumulative encode/decode time, the observability
// hook behind /api/status (and the bandwidth measurements of the
// paper's Figure 5).
type WireStats struct {
	Addr                string
	BytesIn, BytesOut   int64
	FramesIn, FramesOut int64
	EncodeNS, DecodeNS  int64
}

func (c *frameConn) stats() WireStats {
	return WireStats{
		BytesIn:   c.in.Load(),
		BytesOut:  c.out.Load(),
		FramesIn:  c.framesIn.Load(),
		FramesOut: c.framesOut.Load(),
		EncodeNS:  c.encodeNS.Load(),
		DecodeNS:  c.decodeNS.Load(),
	}
}
