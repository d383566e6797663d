package cluster

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// TestFaultConnNonDestructive streams frames through a fault connection
// with every non-destructive byte-level fault enabled and verifies the
// frame codec still sees the exact sent sequence — no loss, no
// reordering, no corruption.
func TestFaultConnNonDestructive(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	const n = 40
	go func() {
		fc := newFrameConn(a)
		for i := 0; i < n; i++ {
			if err := fc.send(&Envelope{ReqID: uint64(i), Kind: MsgPartial, Done: i, Total: n}); err != nil {
				return
			}
		}
	}()
	fc := newFrameConn(NewFaultConn(b, FaultScript{
		Seed:      7,
		DelayProb: 0.3, MaxDelay: 200 * time.Microsecond,
		StallProb: 0.5, Stall: 200 * time.Microsecond,
	}))
	for want := uint64(0); want < n; want++ {
		env, err := fc.recv()
		if err != nil {
			t.Fatalf("recv after %d frames: %v", want, err)
		}
		if env.ReqID != want {
			t.Fatalf("frame %d arrived while expecting %d", env.ReqID, want)
		}
	}
}

// TestFaultConnCut verifies a scripted mid-stream disconnect surfaces
// as a read error within the frame budget.
func TestFaultConnCut(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		fc := newFrameConn(a)
		for i := 0; ; i++ {
			if err := fc.send(&Envelope{ReqID: uint64(i), Kind: MsgPartial}); err != nil {
				return
			}
		}
	}()
	fc := newFrameConn(NewFaultConn(b, FaultScript{CutAfterFrames: 3}))
	for i := 0; i < 3; i++ {
		if _, err := fc.recv(); err != nil {
			return // cut surfaced
		}
	}
	t.Fatal("connection survived past CutAfterFrames")
}

// TestReadLoopNotWedgedBySlowPartialConsumer pins the multiplexing
// liveness fix: a consumer stalled inside its partial callback — with
// its request's buffer full and a completion frame queued behind it —
// must not wedge the connection's single reader. The stalled callback
// here waits on a second request (Ping) over the same connection; the
// ping can only succeed if the reader keeps dispatching past the full
// buffer.
func TestReadLoopNotWedgedBySlowPartialConsumer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A scripted worker: floods 100 partials plus a final for any
	// sketch request (overrunning the client's 64-slot buffer), and
	// answers pings.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := newFrameConn(conn)
		for {
			env, err := fc.recv()
			if err != nil {
				return
			}
			switch env.Kind {
			case MsgSketch:
				go func(id uint64) {
					for i := 0; i < 100; i++ {
						_ = fc.send(&Envelope{ReqID: id, Kind: MsgPartial, Result: &sketch.DataRange{}, Done: i, Total: 100})
					}
					_ = fc.send(&Envelope{ReqID: id, Kind: MsgFinal, Result: &sketch.DataRange{Present: 1}, Done: 100, Total: 100})
				}(env.ReqID)
			case MsgPing:
				_ = fc.send(&Envelope{ReqID: env.ReqID, Kind: MsgOK})
			}
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pinged := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := cl.Sketch(context.Background(), "any", &sketch.RangeSketch{Col: "c"}, func(engine.Partial) {
			once.Do(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := cl.Ping(ctx); err == nil {
					close(pinged)
				}
			})
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("connection reader wedged: sketch never completed")
	}
	select {
	case <-pinged:
	default:
		t.Fatal("ping starved behind a stalled partial consumer")
	}
}

// TestFaultTransportEndToEnd runs a real worker query through a
// delaying, stalling, frame-duplicating transport and demands the
// bit-identical fault-free result: non-destructive faults must be
// invisible to the protocol.
func TestFaultTransportEndToEnd(t *testing.T) {
	cfg := engine.Config{AggregationWindow: time.Millisecond}
	w := NewWorker(storage.NewLoader(cfg, 0, nil))
	addr, err := w.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	clean, err := Connect([]string{addr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clean.Close)
	faulty, err := ConnectOptions(FaultTransport{Script: FaultScript{
		Seed:      11,
		DelayProb: 0.2, MaxDelay: time.Millisecond,
		StallProb: 0.2, Stall: time.Millisecond,
		DupFrameProb: 0.5,
	}}, []string{addr}, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faulty.Close)

	ctx := context.Background()
	sk := &sketch.HistogramSketch{Col: "Distance", Buckets: sketch.NumericBuckets(table.KindDouble, 0, 3000, 16)}
	if _, err := clean.Clients()[0].Load(ctx, "fl", "flights:rows=20000,parts=8,seed=5"); err != nil {
		t.Fatal(err)
	}
	want, err := clean.Clients()[0].Sketch(ctx, "fl", sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.Clients()[0].Load(ctx, "fl2", "flights:rows=20000,parts=8,seed=5"); err != nil {
		t.Fatal(err)
	}
	var partials int
	got, err := faulty.Clients()[0].Sketch(ctx, "fl2", sk, func(engine.Partial) { partials++ })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("faulted transport changed the summary\n got %+v\nwant %+v", got, want)
	}
}
