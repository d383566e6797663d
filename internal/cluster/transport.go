package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// Transport is the seam between the cluster protocol and the network:
// the root dials workers through one, so tests can interpose a
// fault-injecting wrapper around the very same net.Conn and framing
// production uses (the chaos-harness requirement of
// internal/testkit). Production code never notices it exists —
// Dial/Connect default to TCPTransport.
type Transport interface {
	// Dial opens a connection to a worker address.
	Dial(addr string) (net.Conn, error)
}

// TCPTransport is the production transport.
type TCPTransport struct {
	// Timeout bounds connection establishment (0 = 10 s).
	Timeout time.Duration
}

// Dial implements Transport.
func (t TCPTransport) Dial(addr string) (net.Conn, error) {
	timeout := t.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// dialRetry dials addr through tr, retrying failures with capped
// exponential backoff plus jitter until budget elapses (budget <= 0
// means a single attempt). Worker startup is the motivating case: a
// cluster booting all its processes at once should not fail the whole
// Connect because one worker's listener came up a second late — dial
// failures within the budget are presumed transient.
func dialRetry(tr Transport, addr string, budget time.Duration) (net.Conn, error) {
	conn, err := tr.Dial(addr)
	if err == nil || budget <= 0 {
		return conn, err
	}
	deadline := time.Now().Add(budget)
	backoff := 25 * time.Millisecond
	for {
		sleep := backoff + time.Duration(rand.Int64N(int64(backoff/2)+1))
		if remaining := time.Until(deadline); sleep > remaining {
			if remaining <= 0 {
				return nil, err
			}
			sleep = remaining
		}
		time.Sleep(sleep)
		if conn, rerr := tr.Dial(addr); rerr == nil {
			return conn, nil
		} else {
			err = rerr
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// FaultScript is a deterministic per-frame fault schedule. Every frame
// received through a fault connection draws its faults from a PCG
// stream seeded by Seed, so a failing schedule replays exactly from the
// seed. Faults model the cluster pathologies of paper §5.8 at the
// transport layer:
//
//   - delay: the frame is withheld for a random duration ≤ MaxDelay
//     (slow worker / congested link);
//
//   - stall: the frame's bytes are delivered up to a random split
//     point, then the stream pauses for Stall before the remainder
//     (partial-frame write, small TCP windows);
//
//   - cut: after CutAfterFrames frames the connection is hard-closed
//     mid-stream (worker crash, network partition).
//
//   - dup: the frame's raw bytes are delivered twice back to back
//     (a retransmission artifact). Possible only because the binary
//     frame codec is stateless — under the seed's stateful gob stream
//     a byte-level replay was corruption ("duplicate type received").
//     Frames are self-contained, so a partial re-sent by a retrying
//     emitter is byte-identical to a replayed one;
//
//   - truncate: a strict prefix of the frame is delivered and the rest
//     dropped, desynchronizing everything after it (a half-written
//     frame at a crash boundary).
//
// Delay, stall, and dup are non-destructive: the protocol must produce
// exactly the fault-free result under them. A cut or truncation must
// surface as an error (or a completed result that raced ahead) — never
// a hang, never a panic, and never a silently wrong answer.
type FaultScript struct {
	Seed uint64
	// DelayProb delays a frame with this probability, uniform in
	// (0, MaxDelay].
	DelayProb float64
	MaxDelay  time.Duration
	// StallProb pauses for Stall mid-frame with this probability.
	StallProb float64
	Stall     time.Duration
	// CutAfterFrames > 0 hard-closes the connection after that many
	// frames have been received.
	CutAfterFrames int
	// DupFrameProb re-delivers a frame's raw bytes immediately after
	// themselves with this probability (byte-level duplication).
	DupFrameProb float64
	// TruncateAfterFrames > 0 delivers only a random strict prefix of
	// that many-th frame, then keeps streaming subsequent frames
	// (byte-level truncation: the decoder must error out cleanly).
	TruncateAfterFrames int
}

// FaultTransport dials through Inner and wraps every connection in the
// script's fault injector. Each connection derives its own fault stream
// from (Script.Seed, addr), so multi-worker schedules are deterministic
// but not synchronized.
type FaultTransport struct {
	Inner  Transport
	Script FaultScript
}

// Dial implements Transport.
func (t FaultTransport) Dial(addr string) (net.Conn, error) {
	inner := t.Inner
	if inner == nil {
		inner = TCPTransport{}
	}
	conn, err := inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	script := t.Script
	h := fnv.New64a()
	h.Write([]byte(addr))
	script.Seed ^= h.Sum64()
	return NewFaultConn(conn, script), nil
}

// AddrFaultTransport injects per-address fault scripts: only the
// listed victims' connections are wrapped, everything else passes
// through clean. Failover schedules use it to crash or degrade chosen
// workers while their replicas stay healthy.
type AddrFaultTransport struct {
	Inner   Transport
	Scripts map[string]FaultScript
}

// Dial implements Transport.
func (t AddrFaultTransport) Dial(addr string) (net.Conn, error) {
	inner := t.Inner
	if inner == nil {
		inner = TCPTransport{}
	}
	conn, err := inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	script, ok := t.Scripts[addr]
	if !ok {
		return conn, nil
	}
	return NewFaultConn(conn, script), nil
}

// NewFaultConn wraps an established connection in the script's fault
// injector. Faults apply to the read side: wrapping the root's end
// perturbs the worker→root stream (partials, finals), wrapping the
// worker's end (Worker.SetConnWrapper) perturbs the root→worker stream
// (requests, cancels). The injector understands the length-prefixed
// framing just enough to act on whole frames; bytes that do not parse
// as a frame pass through untouched.
func NewFaultConn(conn net.Conn, script FaultScript) net.Conn {
	return &faultConn{
		Conn:   conn,
		script: script,
		rng:    rand.New(rand.NewPCG(script.Seed, script.Seed^0x6a09e667f3bcc909)),
	}
}

type faultConn struct {
	net.Conn
	script FaultScript

	mu     sync.Mutex // serializes Read state (one reader per conn)
	rng    *rand.Rand
	buf    []byte // delivered before reading the next frame
	stall  int    // bytes of buf to deliver before pausing; -1 = no stall
	frames int
	cut    bool
}

// Read implements net.Conn. It delivers buffered fault-shaped bytes,
// fetching and shaping one whole frame from the underlying connection
// whenever the buffer runs dry.
func (c *faultConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stall == 0 && len(c.buf) > 0 {
		time.Sleep(c.script.Stall)
		c.stall = -1
	}
	for len(c.buf) == 0 {
		if err := c.fetchFrame(); err != nil {
			return 0, err
		}
	}
	limit := len(c.buf)
	if c.stall > 0 && c.stall < limit {
		limit = c.stall
	}
	n := copy(p, c.buf[:limit])
	c.buf = c.buf[n:]
	if c.stall > 0 {
		c.stall -= n
	}
	return n, nil
}

// fetchFrame reads one length-prefixed frame from the underlying
// connection and applies the script; callers hold c.mu.
func (c *faultConn) fetchFrame() error {
	if c.cut {
		return io.ErrUnexpectedEOF
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameSize {
		// Not a frame this protocol would send: pass the bytes through
		// and let the real frame reader report the error.
		c.buf = append(c.buf[:0], hdr[:]...)
		c.stall = -1
		return nil
	}
	frame := make([]byte, 4+int(n))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(c.Conn, frame[4:]); err != nil {
		return err
	}
	c.frames++
	if c.script.CutAfterFrames > 0 && c.frames >= c.script.CutAfterFrames {
		c.cut = true
		c.Conn.Close()
		return io.ErrUnexpectedEOF
	}
	if c.script.DelayProb > 0 && c.rng.Float64() < c.script.DelayProb && c.script.MaxDelay > 0 {
		time.Sleep(time.Duration(1 + c.rng.Int64N(int64(c.script.MaxDelay))))
	}
	c.stall = -1
	if c.script.StallProb > 0 && c.rng.Float64() < c.script.StallProb && len(frame) > 1 {
		c.stall = 1 + c.rng.IntN(len(frame)-1)
	}
	if c.script.TruncateAfterFrames > 0 && c.frames == c.script.TruncateAfterFrames && len(frame) > 1 {
		frame = frame[:1+c.rng.IntN(len(frame)-1)]
		c.stall = -1
	} else if c.script.DupFrameProb > 0 && c.rng.Float64() < c.script.DupFrameProb {
		frame = append(frame, frame...)
	}
	c.buf = frame
	return nil
}
