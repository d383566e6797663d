package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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

// MsgKind discriminates protocol messages.
type MsgKind uint8

const (
	// MsgLoad asks the worker to load (or reload) a dataset from a
	// storage source.
	MsgLoad MsgKind = iota + 1
	// MsgMap derives a new dataset from an existing one.
	MsgMap
	// MsgSketch runs a sketch, streaming MsgPartial frames and ending
	// with MsgFinal.
	MsgSketch
	// MsgCancel aborts an in-flight request (high priority: handled by
	// the connection reader, not queued behind work).
	MsgCancel
	// MsgDrop discards a worker-side dataset (soft-state eviction).
	MsgDrop
	// MsgPing checks liveness.
	MsgPing
	// MsgOK acknowledges Load/Map/Drop/Ping.
	MsgOK
	// MsgPartial carries one partial result of a running sketch.
	MsgPartial
	// MsgFinal carries the final result of a sketch.
	MsgFinal
	// MsgError reports request failure.
	MsgError
	// MsgGobEnvelope is the fallback frame: a whole Envelope encoded
	// with a fresh (stateless) gob encoder. The transport emits it
	// whenever an envelope carries a sketch, map op, or result type
	// with no registered binary codec, so third-party types keep
	// working over the wire at gob speed while every shipped type takes
	// the typed path. In-tree users: the spreadsheet's save vizketch
	// (saveSketch / SaveResult, View.SaveCSV in cluster mode) and the
	// overload battery's testkit.overloadPanicSketch. (A codec-less
	// member of a MultiSketch rides gob too, but as a per-member blob
	// inside the typed frame — see sketch.MultiSketch.AppendWire.)
	MsgGobEnvelope
)

// Envelope is the single frame type; fields are populated per Kind.
// One struct keeps the protocol easy to evolve and gives the gob
// fallback a single self-describing payload.
type Envelope struct {
	ReqID uint64
	Kind  MsgKind

	// Requests.
	DatasetID string
	Source    string        // MsgLoad
	NewID     string        // MsgMap
	Op        engine.MapOp  // MsgMap (concrete types registered in engine)
	Sketch    sketch.Sketch // MsgSketch (concrete types registered in sketch)
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
//	magic (0x48) | version (0x01) | kind | flags | uvarint reqID | body | crc32c
//
// Every frame is self-contained: no state spans frames, so any frame
// decodes in isolation and byte-level duplication or reordering of
// whole frames can never corrupt the decoder (the property the seed's
// stateful per-connection gob stream lacked). The one deliberate
// exception is flagDelta partials, which reference the previous partial
// of the same request by sequence number and degrade to a clean error —
// never a wrong result — when the base is missing.
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
	frameVersion = 0x01
	frameCRCLen  = 4
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64), shared by every connection.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame flag bits.
const (
	// flagDelta marks a MsgPartial whose result payload is a delta
	// against the request's previous partial (see appendResultLocked).
	flagDelta byte = 1 << 0
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

// partialState tracks the delta chain of one request's partial stream
// on one side of the wire: the last full snapshot and its sequence
// number. The sender writes deltas against its last sent partial; the
// receiver reconstructs against its last received one. Sequence numbers
// keep the two in lockstep: a duplicated frame (seq ≤ last seen) is
// answered with the already-reconstructed snapshot instead of being
// re-applied, which is what makes delta partials idempotent under
// byte-level frame duplication.
type partialState struct {
	seq  uint64
	last sketch.Result
}

// frameConn frames envelopes with a uint32 big-endian length prefix and
// counts bytes, frames, and codec nanoseconds in each direction.
// Writers are serialized; there is a single reader goroutine per
// connection. Encoding is the stateless binary codec above; envelopes
// carrying types without a registered codec fall back to MsgGobEnvelope
// frames (a fresh gob encoder per frame, so even the fallback is
// stateless).
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

	wmu    sync.Mutex
	seqOut map[uint64]*partialState // send-side delta chains, under wmu

	// Reader state: single reader per connection, no lock.
	readBuf []byte
	seqIn   map[uint64]*partialState // recv-side delta chains
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	c := &frameConn{
		rw:     rw,
		seqOut: make(map[uint64]*partialState),
		seqIn:  make(map[uint64]*partialState),
	}
	c.deadliner, _ = rw.(interface{ SetReadDeadline(time.Time) error })
	return c
}

// needsGobFallback reports whether any payload of env lacks a binary
// codec, forcing the whole envelope onto the gob fallback frame.
func needsGobFallback(env *Envelope) bool {
	if env.Sketch != nil && !sketch.SketchHasCodec(env.Sketch) {
		return true
	}
	if env.Op != nil && !engine.OpHasCodec(env.Op) {
		return true
	}
	if env.Result != nil && !sketch.ResultHasCodec(env.Result) {
		return true
	}
	return false
}

// send encodes env as one self-contained length-prefixed frame and
// writes it with a single Write call.
func (c *frameConn) send(env *Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	start := time.Now()
	fb := frameBufPool.Get().(*frameBuf)
	buf := append(fb.b[:0], 0, 0, 0, 0) // outer length placeholder
	buf, err := c.appendFrameLocked(buf, env)
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
	_, werr := c.rw.Write(buf)
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

// appendFrameLocked appends the frame payload (header + body) for env;
// callers hold wmu (the partial delta chain lives under it).
func (c *frameConn) appendFrameLocked(buf []byte, env *Envelope) ([]byte, error) {
	if needsGobFallback(env) {
		// Kept out of line: taking &buf here would heap-allocate the
		// slice header on every call, gob branch taken or not.
		return appendGobEnvelope(buf, env)
	}
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
	headerAt := len(buf)
	buf = append(buf, frameMagic, frameVersion, byte(env.Kind), flags)
	buf = wire.AppendUvarint(buf, env.ReqID)
	var err error
	switch env.Kind {
	case MsgLoad:
		buf = wire.AppendString(buf, env.DatasetID)
		buf = wire.AppendString(buf, env.Source)
	case MsgMap:
		buf = wire.AppendString(buf, env.DatasetID)
		buf = wire.AppendString(buf, env.NewID)
		var ok bool
		if buf, ok = engine.AppendOpWire(buf, env.Op); !ok {
			return buf, fmt.Errorf("cluster: encode: op %T lost its codec", env.Op)
		}
	case MsgSketch:
		buf = wire.AppendString(buf, env.DatasetID)
		var ok bool
		if buf, ok = sketch.AppendSketchWire(buf, env.Sketch); !ok {
			return buf, fmt.Errorf("cluster: encode: sketch %T lost its codec", env.Sketch)
		}
	case MsgCancel, MsgPing, MsgDrop:
		if env.Kind == MsgDrop {
			buf = wire.AppendString(buf, env.DatasetID)
		}
	case MsgOK:
		buf = wire.AppendUvarint(buf, uint64(env.NumLeaves))
	case MsgPartial, MsgFinal:
		buf = wire.AppendUvarint(buf, uint64(env.Done))
		buf = wire.AppendUvarint(buf, uint64(env.Total))
		buf, err = c.appendResultLocked(buf, headerAt, env)
		if err != nil {
			return buf, err
		}
	case MsgError:
		// An error ends the request's partial stream just as a final
		// does; retire its delta chain or every cancelled query (the
		// normal Hillview interaction) leaks its last snapshot.
		delete(c.seqOut, env.ReqID)
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

// appendResultLocked writes the seq + result payload of a partial or
// final frame, maintaining the request's delta chain. A MsgPartial
// whose result type supports deltas and whose request already sent a
// compatible partial ships only the increments (flagDelta); the final
// is always a full snapshot and retires the chain.
func (c *frameConn) appendResultLocked(buf []byte, headerAt int, env *Envelope) ([]byte, error) {
	if env.Kind == MsgFinal {
		delete(c.seqOut, env.ReqID)
		buf = wire.AppendUvarint(buf, 0) // finals carry no sequence
		if env.Result == nil {
			return append(buf, 0), nil // tag 0: no result
		}
		if out, ok := sketch.AppendResultWire(buf, env.Result); ok {
			return out, nil
		}
		return buf, fmt.Errorf("cluster: encode: result %T lost its codec", env.Result)
	}
	if env.Result == nil {
		// Tag 0: a result-less partial. It must not advance the delta
		// chain — the receiving tag-0 branch leaves its chain untouched,
		// and a sender-only seq bump would make the next real delta look
		// like it skipped a base.
		buf = wire.AppendUvarint(buf, 0)
		return append(buf, 0), nil
	}
	st := c.seqOut[env.ReqID]
	if st == nil {
		st = &partialState{}
		c.seqOut[env.ReqID] = st
	}
	st.seq++
	buf = wire.AppendUvarint(buf, st.seq)
	if st.last != nil {
		if out, ok := sketch.AppendResultDeltaWire(buf, env.Result, st.last); ok {
			buf = out
			buf[headerAt+3] |= flagDelta
			st.last = env.Result
			return buf, nil
		}
	}
	out, ok := sketch.AppendResultWire(buf, env.Result)
	if !ok {
		return buf, fmt.Errorf("cluster: encode: result %T lost its codec", env.Result)
	}
	st.last = env.Result
	return out, nil
}

// appendGobEnvelope writes the fallback frame: header plus the whole
// envelope through a fresh (stateless) gob encoder.
func appendGobEnvelope(buf []byte, env *Envelope) ([]byte, error) {
	buf = append(buf, frameMagic, frameVersion, byte(MsgGobEnvelope), 0)
	buf = wire.AppendUvarint(buf, env.ReqID)
	w := sliceWriter{buf: &buf}
	if err := gob.NewEncoder(w).Encode(env); err != nil {
		return buf, fmt.Errorf("cluster: encode: %w", err)
	}
	return buf, nil
}

// sliceWriter lets a fresh gob encoder append straight into the pooled
// frame buffer.
type sliceWriter struct{ buf *[]byte }

func (w sliceWriter) Write(p []byte) (int, error) {
	*w.buf = append(*w.buf, p...)
	return len(p), nil
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
	env, err := c.decodeFrame(body)
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
func (c *frameConn) decodeFrame(payload []byte) (*Envelope, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("cluster: decode: frame of %d bytes is shorter than a header", len(payload))
	}
	if payload[0] != frameMagic {
		return nil, fmt.Errorf("cluster: decode: bad magic 0x%02x", payload[0])
	}
	if payload[1] != frameVersion {
		return nil, fmt.Errorf("cluster: decode: unsupported frame version %d", payload[1])
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
	case MsgGobEnvelope:
		var inner Envelope
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&inner); err != nil {
			return nil, fmt.Errorf("cluster: decode: fallback envelope: %w", err)
		}
		return &inner, nil
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
	case MsgDrop:
		env.DatasetID, b, err = wire.ConsumeString(b)
	case MsgOK:
		var v uint64
		v, b, err = wire.ConsumeUvarint(b)
		env.NumLeaves = int(v)
	case MsgPartial, MsgFinal:
		b, err = c.decodeResult(env, flags, b)
	case MsgError:
		// Mirror of the send side: an error retires the request's
		// receive-side delta chain.
		delete(c.seqIn, reqID)
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
	if err != nil {
		return nil, fmt.Errorf("cluster: decode: %w", err)
	}
	if len(b) != 0 {
		// A well-formed frame is consumed exactly; leftover bytes mean a
		// desynchronized or spliced stream (e.g. a truncated frame whose
		// outer length swallowed part of the next one) whose field parse
		// happened to succeed — corruption must surface, never a
		// structurally plausible envelope with garbage values.
		return nil, fmt.Errorf("cluster: decode: %w", wire.Corruptf("%d trailing bytes after %v frame", len(b), kind))
	}
	return env, nil
}

// decodeResult parses the body of a partial or final frame and runs the
// receive side of the delta chain (see partialState). It returns the
// unconsumed remainder; paths that deliberately skip the body (replayed
// duplicates, whose payload was already reconstructed) report it fully
// consumed so the caller's trailing-bytes check only fires on frames
// the decoder actually parsed.
func (c *frameConn) decodeResult(env *Envelope, flags byte, b []byte) ([]byte, error) {
	done, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return b, err
	}
	total, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return b, err
	}
	seq, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return b, err
	}
	env.Done, env.Total = int(done), int(total)
	if len(b) > 0 && b[0] == 0 && flags&flagDelta == 0 {
		// Tag 0: a result-less frame; the delta chain is untouched.
		if env.Kind == MsgFinal {
			delete(c.seqIn, env.ReqID)
		}
		return b[1:], nil
	}
	if env.Kind == MsgFinal {
		delete(c.seqIn, env.ReqID)
		if flags&flagDelta != 0 {
			return b, wire.Corruptf("delta flag on a final frame")
		}
		env.Result, b, err = sketch.DecodeResultWire(b)
		return b, err
	}
	st := c.seqIn[env.ReqID]
	if flags&flagDelta != 0 {
		switch {
		case st == nil || st.last == nil:
			return b, wire.Corruptf("delta partial without a base (req %d seq %d)", env.ReqID, seq)
		case seq <= st.seq:
			// A replayed frame (byte-level duplication): the snapshot it
			// would reconstruct is already reconstructed. Deliver that and
			// leave the chain untouched — re-applying the delta would
			// double-count. The body is not re-parsed.
			env.Result = st.last
			return nil, nil
		case seq != st.seq+1:
			return b, wire.Corruptf("delta partial skips bases (req %d seq %d after %d)", env.ReqID, seq, st.seq)
		}
		cur, rest, err := sketch.DecodeResultDeltaWire(b, st.last)
		if err != nil {
			return b, err
		}
		st.seq, st.last = seq, cur
		env.Result = cur
		return rest, nil
	}
	if st != nil && seq <= st.seq {
		// Duplicated full partial: the chain has moved past it; hand the
		// consumer the freshest snapshot instead of rewinding the base.
		// The body is not re-parsed.
		env.Result = st.last
		return nil, nil
	}
	r, rest, err := sketch.DecodeResultWire(b)
	if err != nil {
		return b, err
	}
	if st == nil {
		st = &partialState{}
		c.seqIn[env.ReqID] = st
	}
	st.seq, st.last = seq, r
	env.Result = r
	return rest, nil
}

// BytesIn returns bytes received on this connection.
func (c *frameConn) BytesIn() int64 { return c.in.Load() }

// BytesOut returns bytes sent on this connection.
func (c *frameConn) BytesOut() int64 { return c.out.Load() }

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
