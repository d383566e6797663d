package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Worker is a Hillview worker server: it owns a soft-state registry of
// datasets (loaded from its local storage or derived by map operations)
// and executes sketches over them, streaming partial results back.
// Workers hold no persistent state — after a restart, the root's redo
// log rebuilds everything (paper §5.8: "worker nodes are stateless, so
// restarting the node after a failure is equivalent to deleting all
// cached datasets").
type Worker struct {
	loader engine.Loader

	// Graceful shutdown: active tracks in-flight requests; draining
	// flips when Drain starts, after which new requests are refused (the
	// root's failover retries them on a replica).
	active   sync.WaitGroup
	inFlight atomic.Int64
	draining atomic.Bool

	mu       sync.Mutex
	datasets map[string]engine.IDataSet
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wrap     func(net.Conn) net.Conn
	logf     func(format string, args ...any)
}

// NewWorker builds a worker that loads data through loader.
func NewWorker(loader engine.Loader) *Worker {
	return &Worker{
		loader:   loader,
		datasets: make(map[string]engine.IDataSet),
		conns:    make(map[net.Conn]struct{}),
		logf:     func(string, ...any) {},
	}
}

// SetLogf installs a diagnostic logger (e.g. log.Printf).
func (w *Worker) SetLogf(f func(string, ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	w.logf = f
}

// SetConnWrapper interposes f on every subsequently accepted
// connection — the worker-side half of the transport seam. The chaos
// harness wraps accepted connections in NewFaultConn so the root→worker
// stream (requests, cancels) suffers the same scripted faults the
// root-side FaultTransport applies to the worker→root stream.
func (w *Worker) SetConnWrapper(f func(net.Conn) net.Conn) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wrap = f
}

// Crash simulates the worker process dying mid-work: every live
// connection is hard-closed (in-flight requests on the root fail with a
// connection error, exactly as with a real crash) and all soft state is
// dropped. The listener stays open, playing the role of a supervisor
// restarting the process with empty state (paper §5.8: workers are
// stateless, so restart equals deleting all cached datasets).
func (w *Worker) Crash() {
	w.mu.Lock()
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.datasets = make(map[string]engine.IDataSet)
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// DropAll discards all soft state, simulating a worker restart.
func (w *Worker) DropAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.datasets = make(map[string]engine.IDataSet)
}

// NumDatasets returns the registry size (for tests).
func (w *Worker) NumDatasets() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.datasets)
}

// Listen starts accepting on addr ("host:0" picks a free port) and
// returns the bound address.
func (w *Worker) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	w.mu.Lock()
	w.ln = ln
	w.mu.Unlock()
	go w.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Close stops accepting connections.
func (w *Worker) Close() error {
	w.mu.Lock()
	ln := w.ln
	w.mu.Unlock()
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// ActiveRequests returns the number of requests executing now.
func (w *Worker) ActiveRequests() int64 { return w.inFlight.Load() }

// Drain performs a graceful shutdown: the listener closes, requests
// arriving on live connections are refused (the root's failover
// retries them on a replica), in-flight requests get up to timeout to
// finish, and then every connection is closed. A nil return means the
// worker went quiet; an error means the timeout cut work off.
func (w *Worker) Drain(timeout time.Duration) error {
	w.draining.Store(true)
	w.Close()
	done := make(chan struct{})
	go func() {
		w.active.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(timeout):
		err = fmt.Errorf("cluster: drain timed out after %v with %d requests in flight", timeout, w.ActiveRequests())
	}
	w.mu.Lock()
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (w *Worker) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				w.logf("cluster worker: accept: %v", err)
			}
			return
		}
		w.mu.Lock()
		if w.wrap != nil {
			conn = w.wrap(conn)
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		go w.serveConn(conn)
	}
}

// serveConn handles one root connection: a reader loop dispatches each
// request to its own goroutine; cancellation frames are handled inline
// by the reader so they bypass any queued work (paper §5.3: "a high
// priority cancellation message that bypasses the queuing mechanisms").
func (w *Worker) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	fc := newFrameConn(conn)
	var (
		mu      sync.Mutex
		cancels = make(map[uint64]context.CancelFunc)
	)
	for {
		env, err := fc.recv()
		var bad *bodyError
		if errors.As(err, &bad) {
			// One request the worker cannot decode fails alone; the
			// checksum held, so the next frame starts where this one ended.
			w.logf("cluster worker: failing request from %s: %v", conn.RemoteAddr(), bad)
			if err := fc.send(&Envelope{Kind: MsgError, ReqID: bad.reqID, Err: bad.Error()}); err != nil {
				w.logf("cluster worker: send: %v", err)
			}
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				w.logf("cluster worker: dropping connection from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if env.Kind == MsgCancel {
			mu.Lock()
			if cancel, ok := cancels[env.ReqID]; ok {
				cancel()
			}
			mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		mu.Lock()
		if _, active := cancels[env.ReqID]; active {
			// A request ID already in flight is a transport-level replay
			// (the chaos harness duplicates whole frames byte-for-byte;
			// the stateless codec makes that decodable). Requests are
			// idempotent but a sketch replay would interleave a second
			// partial stream under the same ID, so dedup here.
			mu.Unlock()
			cancel()
			continue
		}
		cancels[env.ReqID] = cancel
		mu.Unlock()
		if w.draining.Load() {
			// Refuse work arriving after the drain began; replicas carry it.
			mu.Lock()
			delete(cancels, env.ReqID)
			mu.Unlock()
			cancel()
			if err := fc.send(&Envelope{Kind: MsgError, ReqID: env.ReqID, Err: "cluster: worker is draining for shutdown"}); err != nil {
				w.logf("cluster worker: send: %v", err)
			}
			continue
		}
		w.active.Add(1)
		w.inFlight.Add(1)
		go func(env *Envelope) {
			// settle drops the request from ActiveRequests before the
			// terminal reply is written, so a peer holding its reply never
			// sees it still counted; active.Done stays behind the send,
			// which Drain must wait for.
			settle := sync.OnceFunc(func() { w.inFlight.Add(-1) })
			defer func() {
				mu.Lock()
				delete(cancels, env.ReqID)
				mu.Unlock()
				cancel()
				settle()
				w.active.Done()
			}()
			// A panic while serving one request (a buggy sketch summarize,
			// a malformed operand) must not kill the worker process — the
			// worker is one process serving every query of every root.
			// Convert it to this request's error reply; the engine treats
			// it as non-retryable, so only the offending query fails.
			defer func() {
				if pe := engine.CapturePanic(recover()); pe != nil {
					w.logf("cluster worker: request %d: %v\n%s", env.ReqID, pe, pe.Stack)
					reply := &Envelope{Kind: MsgError, ReqID: env.ReqID, Err: pe.Error()}
					settle()
					if err := fc.send(reply); err != nil {
						w.logf("cluster worker: send: %v", err)
					}
				}
			}()
			w.handle(ctx, fc, env, settle)
		}(env)
	}
}

// handle executes one request. Every path ends in exactly one terminal
// reply (finish); settle runs just before it is written.
func (w *Worker) handle(ctx context.Context, fc *frameConn, env *Envelope, settle func()) {
	reply := func(out *Envelope) {
		out.ReqID = env.ReqID
		if err := fc.send(out); err != nil {
			w.logf("cluster worker: send: %v", err)
		}
	}
	finish := func(out *Envelope) {
		settle()
		reply(out)
	}
	fail := func(err error) {
		finish(&Envelope{
			Kind:       MsgError,
			Err:        err.Error(),
			ErrMissing: errors.Is(err, engine.ErrMissingDataset),
		})
	}

	switch env.Kind {
	case MsgPing:
		finish(&Envelope{Kind: MsgOK})

	case MsgLoad:
		ds, err := w.loader(env.DatasetID, env.Source)
		if err != nil {
			fail(err)
			return
		}
		w.mu.Lock()
		w.datasets[env.DatasetID] = ds // idempotent: replay overwrites
		w.mu.Unlock()
		finish(&Envelope{Kind: MsgOK, NumLeaves: ds.NumLeaves()})

	case MsgMap:
		parent, err := w.get(env.DatasetID)
		if err != nil {
			fail(err)
			return
		}
		ds, err := parent.Map(env.Op, env.NewID)
		if err != nil {
			fail(err)
			return
		}
		w.mu.Lock()
		w.datasets[env.NewID] = ds
		w.mu.Unlock()
		finish(&Envelope{Kind: MsgOK, NumLeaves: ds.NumLeaves()})

	case MsgSketch:
		ds, err := w.get(env.DatasetID)
		if err != nil {
			fail(err)
			return
		}
		// A traced request gets a worker-side trace: the engine records
		// its scan/merge spans into it through the context, and the
		// whole breakdown ships back on the final frame for the root to
		// stitch under its wire.call span.
		var tr *obs.Trace
		if env.TraceID != "" {
			tr = obs.NewTrace(env.TraceID)
			ctx = obs.WithTrace(ctx, tr)
		}
		var onPartial engine.PartialFunc
		if !env.NoPartials {
			onPartial = func(p engine.Partial) {
				if p.Done == p.Total {
					return // the complete result: MsgFinal carries it
				}
				reply(&Envelope{Kind: MsgPartial, Result: p.Result, Done: p.Done, Total: p.Total})
			}
		}
		sp := tr.StartSpan("worker.sketch")
		res, err := ds.Sketch(ctx, env.Sketch, onPartial)
		sp.End()
		if err != nil {
			fail(err)
			return
		}
		finish(&Envelope{
			Kind: MsgFinal, Result: res, Done: ds.NumLeaves(), Total: ds.NumLeaves(),
			TraceID: env.TraceID, Spans: tr.Spans(),
		})

	default:
		fail(fmt.Errorf("cluster: unknown request kind %d", env.Kind))
	}
}

func (w *Worker) get(id string) (engine.IDataSet, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ds, ok := w.datasets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q on this worker", engine.ErrMissingDataset, id)
	}
	return ds, nil
}
