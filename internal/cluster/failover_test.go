package cluster

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// startWorkersOpts launches n workers and connects with explicit
// cluster options (and an optional transport).
func startWorkersOpts(t *testing.T, n int, tr Transport, opts Options) (*Cluster, []*Worker, []string) {
	t.Helper()
	cfg := engine.Config{AggregationWindow: time.Millisecond}
	addrs := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(storage.NewLoader(cfg, 0, nil))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		addrs[i] = addr
	}
	c, err := ConnectOptions(tr, addrs, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, workers, addrs
}

// loadAndSketch loads src and runs a merge-order-sensitive sketch,
// returning the result.
func loadAndSketch(t *testing.T, c *Cluster, src string) sketch.Result {
	t.Helper()
	ds := loadOnly(t, c, src)
	return sketchOn(t, ds)
}

func loadOnly(t *testing.T, c *Cluster, src string) engine.IDataSet {
	t.Helper()
	ds, err := c.Loader()("fl", src)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func sketchOn(t *testing.T, ds engine.IDataSet) sketch.Result {
	t.Helper()
	res, err := ds.Sketch(context.Background(), &sketch.MisraGriesSketch{Col: "Carrier", K: 6}, func(engine.Partial) {})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const failoverSrc = "flights:rows=20000,parts=4,seed=9{worker}"

// fleetBaseline computes the fault-free R=2 answer on a clean cluster.
func fleetBaseline(t *testing.T) sketch.Result {
	t.Helper()
	c, _, _ := startWorkersOpts(t, 4, nil, Options{Replication: 2})
	return loadAndSketch(t, c, failoverSrc)
}

func TestReplicatedClusterMatchesAndSurvivesCut(t *testing.T) {
	want := fleetBaseline(t)

	// Same topology, but worker 0's connection is hard-cut after two
	// frames — its load reply arrives, then its first sketch frame dies
	// mid-query. The replica (worker 2, same group) must serve the range
	// and the answer must be bit-identical.
	cfg := engine.Config{AggregationWindow: time.Millisecond}
	addrs := make([]string, 4)
	workers := make([]*Worker, 4)
	for i := range workers {
		w := NewWorker(storage.NewLoader(cfg, 0, nil))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i], addrs[i] = w, addr
	}
	tr := AddrFaultTransport{Scripts: map[string]FaultScript{
		addrs[0]: {Seed: 1, CutAfterFrames: 2},
	}}
	c, err := ConnectOptions(tr, addrs, cfg, Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	got := loadAndSketch(t, c, failoverSrc)
	if !reflect.DeepEqual(got, want) {
		t.Error("failover result differs from fault-free run")
	}
	st := c.Stats()
	if st.Retries == 0 {
		t.Errorf("no failover recorded: %+v", st)
	}
	if st.Groups != 2 || st.Replication != 2 || len(st.Workers) != 4 {
		t.Errorf("stats shape: %+v", st)
	}
}

func TestTotalGroupLossFailsCleanly(t *testing.T) {
	// R=1: every group has exactly one replica, so losing a worker loses
	// its group. The contract is a clean, prompt error — never a hang.
	c, workers, _ := startWorkersOpts(t, 2, nil, Options{})
	ds := loadOnly(t, c, failoverSrc)
	sketchOn(t, ds) // warm fault-free query works

	workers[1].Crash()
	done := make(chan error, 1)
	go func() {
		_, err := ds.Sketch(context.Background(), &sketch.MisraGriesSketch{Col: "Carrier", K: 6}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("total group loss must error")
		}
		if !errors.Is(err, ErrWorkerLost) {
			t.Errorf("err = %v, want ErrWorkerLost", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("total group loss hung instead of erroring")
	}
	if c.Stats().GroupsLost == 0 {
		t.Error("lost group not counted")
	}
}

func TestReconnectWorkerRestoresService(t *testing.T) {
	c, workers, addrs := startWorkersOpts(t, 2, nil, Options{Replication: 2})
	ds := loadOnly(t, c, failoverSrc)
	want := sketchOn(t, ds)

	// Both replicas of the single group crash: soft state gone,
	// connections dead, listeners alive (a supervisor restart).
	workers[0].Crash()
	workers[1].Crash()
	if _, err := ds.Sketch(context.Background(), &sketch.MisraGriesSketch{Col: "Carrier", K: 6}, nil); err == nil {
		t.Fatal("query with every replica down should fail")
	}
	for _, addr := range addrs {
		if err := c.ReconnectWorker(addr); err != nil {
			t.Fatal(err)
		}
	}
	// The reconnect bumped each worker's generation; the next query
	// re-materializes the dataset from its pure source spec and answers
	// bit-identically.
	if got := sketchOn(t, ds); !reflect.DeepEqual(got, want) {
		t.Error("post-reconnect result differs")
	}
	st := c.Stats()
	if st.Reconnects != 2 {
		t.Errorf("reconnects = %d, want 2", st.Reconnects)
	}
	for _, w := range st.Workers {
		if w.State != "up" || w.Generation < 2 {
			t.Errorf("worker %+v not revived", w)
		}
	}
}

func TestHealthMonitorRevivesCrashedWorker(t *testing.T) {
	c, workers, _ := startWorkersOpts(t, 2, nil, Options{
		Replication:    2,
		HealthInterval: 20 * time.Millisecond,
	})
	ds := loadOnly(t, c, failoverSrc)
	want := sketchOn(t, ds)

	workers[0].Crash()
	workers[1].Crash()
	// The monitor must notice the dead connections and redial them
	// without any explicit ReconnectWorker call.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Stats()
		up := 0
		for _, w := range st.Workers {
			if w.State == "up" && w.Generation >= 2 {
				up++
			}
		}
		if up == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor did not revive workers: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := sketchOn(t, ds); !reflect.DeepEqual(got, want) {
		t.Error("post-revival result differs")
	}
}

func TestDialRetrySucceedsAfterDelayedListen(t *testing.T) {
	// Reserve a port, release it, and only start the worker there after
	// a delay: Connect's dial retry must ride out the gap.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := engine.Config{AggregationWindow: -1}
	go func() {
		time.Sleep(300 * time.Millisecond)
		w := NewWorker(storage.NewLoader(cfg, 0, nil))
		if _, err := w.Listen(addr); err != nil {
			t.Logf("delayed listen: %v", err)
		}
	}()
	c, err := ConnectOptions(nil, []string{addr}, cfg, Options{DialRetryBudget: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial retry did not survive delayed startup: %v", err)
	}
	defer c.Close()
	if err := c.Clients()[0].Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFrameWatchdogUnsticksTruncatedFrame(t *testing.T) {
	// A peer that sends a frame header and then goes silent used to
	// stall recv forever; the watchdog must turn it into a prompt error.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	fc := newFrameConn(client)
	fc.readTimeout = 150 * time.Millisecond
	go func() {
		// 4-byte length promising 64 bytes, then only 3 bytes of body.
		server.Write([]byte{0, 0, 0, 64, 0x48, 0x01, 2})
	}()
	start := time.Now()
	_, err := fc.recv()
	if err == nil {
		t.Fatal("truncated frame must error")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Errorf("err = %v, want mid-read stall diagnosis", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog took %v", elapsed)
	}

	// An idle connection (no frame started) must NOT trip the watchdog:
	// recv blocks patiently on the first header byte.
	client2, server2 := net.Pipe()
	defer client2.Close()
	defer server2.Close()
	fc2 := newFrameConn(client2)
	fc2.readTimeout = 50 * time.Millisecond
	got := make(chan error, 1)
	go func() { _, err := fc2.recv(); got <- err }()
	select {
	case err := <-got:
		t.Fatalf("idle connection tripped the watchdog: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
}
