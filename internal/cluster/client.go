package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// ErrWorkerLost marks transport-level failures of a worker connection:
// the connection died, a frame stalled past the read watchdog, or the
// client was closed. Errors wrapping it are retryable on another
// replica of the same partition range — the failure says nothing about
// the data or the sketch, only about this worker. Deterministic worker
// errors (bad column, missing dataset after a replay attempt) do not
// wrap it.
var ErrWorkerLost = errors.New("cluster: worker connection lost")

// Client is the root's connection to one worker. Requests multiplex
// over the single connection; a reader goroutine dispatches response
// frames to the issuing request.
type Client struct {
	addr   string
	conn   net.Conn
	fc     *frameConn
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan *Envelope
	closed  error
	// done closes when the connection fails, waking every in-flight
	// call. Per-request channels are never closed — readLoop may hold
	// one across the failure, and a send on a closed channel would
	// panic the whole root instead of failing one request.
	done chan struct{}
}

// newClientConn wraps an established connection in a Client (frame
// timeout 0 = defaultFrameTimeout, negative = disabled).
func newClientConn(conn net.Conn, addr string, frameTimeout time.Duration) *Client {
	fc := newFrameConn(conn)
	if frameTimeout != 0 {
		fc.readTimeout = frameTimeout
	}
	c := &Client{
		addr:    addr,
		conn:    conn,
		fc:      fc,
		pending: make(map[uint64]chan *Envelope),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// BytesReceived returns bytes this root has received from the worker —
// the quantity plotted in Figure 5 (bottom).
func (c *Client) BytesReceived() int64 { return c.fc.BytesIn() }

// WireStats returns this connection's transport counters: bytes and
// frames in each direction and cumulative encode/decode nanoseconds.
func (c *Client) WireStats() WireStats {
	s := c.fc.stats()
	s.Addr = c.addr
	return s
}

// Close tears down the connection; in-flight requests fail.
func (c *Client) Close() error {
	c.fail(fmt.Errorf("%w: %s: client closed", ErrWorkerLost, c.addr))
	return c.conn.Close()
}

// Dead reports whether the connection has failed (or been closed): a
// dead client fails every call immediately and can only be replaced,
// never revived.
func (c *Client) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed != nil
}

func (c *Client) readLoop() {
	for {
		env, err := c.fc.recv()
		if err != nil {
			c.fail(fmt.Errorf("%w: %s: %v", ErrWorkerLost, c.addr, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[env.ReqID]
		c.mu.Unlock()
		if ch == nil {
			continue // request already completed (e.g. a duplicated final)
		}
		// The reader must never block on a request's buffer: a consumer
		// stalled inside its partial callback — or a request abandoned
		// after a cancel-drain timeout — would wedge the connection's
		// single reader, and with it every request multiplexed on it
		// (the chaos harness turns that wedge into a root-wide hang).
		if env.Kind == MsgPartial {
			// Partials are cumulative; if the buffer is full, drop this
			// one — a fresher snapshot follows.
			select {
			case ch <- env:
			default:
			}
			continue
		}
		// Completion frames (final/ok/error) decide the request, so they
		// must be delivered — but still without blocking. If the buffer
		// is full, evict its oldest frame to make room: an evicted
		// partial is safe to lose (cumulative), and an evicted
		// completion means the request is already decided, making the
		// new frame the redundant one. readLoop is the only sender, so
		// the slot freed by an eviction cannot be stolen.
		for delivered := false; !delivered; {
			select {
			case ch <- env:
				delivered = true
			default:
				select {
				case old := <-ch:
					if old.Kind != MsgPartial {
						ch <- old // put the deciding frame back
						delivered = true
					}
				default:
					// Consumer drained concurrently; retry the send.
				}
			}
		}
	}
}

// fail aborts all pending requests by closing the client-wide done
// channel; each call cleans up its own pending entry on exit.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed == nil {
		c.closed = err
		close(c.done)
	}
}

// abortErr reports why in-flight requests were aborted.
func (c *Client) abortErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed != nil {
		return c.closed
	}
	return errors.New("cluster: request aborted")
}

// call issues a request and invokes onFrame for every response frame
// until onFrame returns done=true or the request fails.
func (c *Client) call(ctx context.Context, env *Envelope, onFrame func(*Envelope) (done bool, err error)) error {
	c.mu.Lock()
	if c.closed != nil {
		err := c.closed
		c.mu.Unlock()
		return err
	}
	id := c.nextID.Add(1)
	env.ReqID = id
	// Buffered so the reader never blocks on a slow request consumer for
	// long: partials stream at the throttle rate, frames are small.
	ch := make(chan *Envelope, 64)
	c.pending[id] = ch
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}()

	if err := c.fc.send(env); err != nil {
		if errors.Is(err, errWriteFailed) {
			// A failed write means the connection is gone; encode errors
			// (deterministic) pass through unwrapped.
			return fmt.Errorf("%w: %s: %v", ErrWorkerLost, c.addr, err)
		}
		return err
	}
	for {
		var resp *Envelope
		select {
		case <-ctx.Done():
			// Out-of-band cancellation; the worker drops queued work.
			_ = c.fc.send(&Envelope{ReqID: id, Kind: MsgCancel})
			// Drain until the worker acknowledges with an error frame or
			// the final result that raced with the cancel.
			for {
				select {
				case resp := <-ch:
					if resp.Kind == MsgError || resp.Kind == MsgFinal || resp.Kind == MsgOK {
						return ctx.Err()
					}
				case <-c.done:
					return ctx.Err()
				case <-time.After(5 * time.Second):
					return ctx.Err()
				}
			}
		case resp = <-ch:
		case <-c.done:
			// The connection failed; frames that arrived first may still
			// be buffered (including the final result), so drain before
			// giving up.
			select {
			case resp = <-ch:
			default:
				return c.abortErr()
			}
		}
		if resp.Kind == MsgError {
			if resp.ErrMissing {
				return fmt.Errorf("%w: worker %s: %s", engine.ErrMissingDataset, c.addr, resp.Err)
			}
			return fmt.Errorf("cluster: worker %s: %s", c.addr, resp.Err)
		}
		done, err := onFrame(resp)
		if err != nil || done {
			return err
		}
	}
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, &Envelope{Kind: MsgPing}, func(*Envelope) (bool, error) { return true, nil })
}

// Load asks the worker to (re)load a dataset from a source spec and
// returns the number of leaf partitions created.
func (c *Client) Load(ctx context.Context, datasetID, source string) (int, error) {
	leaves := 0
	err := c.call(ctx, &Envelope{Kind: MsgLoad, DatasetID: datasetID, Source: source}, func(e *Envelope) (bool, error) {
		leaves = e.NumLeaves
		return true, nil
	})
	return leaves, err
}

// MapOp derives a dataset on the worker.
func (c *Client) MapOp(ctx context.Context, datasetID, newID string, op engine.MapOp) (int, error) {
	leaves := 0
	err := c.call(ctx, &Envelope{Kind: MsgMap, DatasetID: datasetID, NewID: newID, Op: op}, func(e *Envelope) (bool, error) {
		leaves = e.NumLeaves
		return true, nil
	})
	return leaves, err
}

// Sketch runs a sketch on the worker's dataset, forwarding streamed
// partials and returning the final summary.
func (c *Client) Sketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	// When the context carries a trace, the request ships the trace ID so
	// the worker records its own span breakdown; the final frame carries
	// those spans back and they are stitched under this wire.call span.
	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan("wire.call")
	env := &Envelope{Kind: MsgSketch, DatasetID: datasetID, Sketch: sk,
		NoPartials: onPartial == nil, TraceID: tr.ID()}
	var final sketch.Result
	err := c.call(ctx, env, func(e *Envelope) (bool, error) {
		switch e.Kind {
		case MsgPartial:
			if onPartial != nil {
				onPartial(engine.Partial{Result: e.Result, Done: e.Done, Total: e.Total})
			}
			return false, nil
		case MsgFinal:
			final = e.Result
			tr.Stitch(sp.Offset(), e.Spans)
			return true, nil
		default:
			return false, fmt.Errorf("cluster: unexpected frame kind %d", e.Kind)
		}
	})
	sp.EndNote(c.addr)
	return final, err
}
