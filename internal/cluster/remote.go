package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Cluster is the root's view of a set of workers: a replica map from
// partition groups to the workers serving them, per-worker health
// state, and the failover machinery that keeps queries running while
// at least one replica of every group survives.
type Cluster struct {
	cfg  engine.Config
	opts Options
	tr   Transport

	// slots and nGroups are fixed at Connect: worker i serves partition
	// group i mod nGroups for the cluster's lifetime. Group counts are
	// baked into source specs and partition IDs, so changing them would
	// change results.
	slots   []*slot
	nGroups int

	stopMonitor chan struct{}
	monitorWG   sync.WaitGroup

	retries    atomic.Int64
	groupsLost atomic.Int64
	reconnects atomic.Int64
}

// Connect dials every worker address over TCP with default Options
// (no replication, no background monitor).
func Connect(addrs []string, cfg engine.Config) (*Cluster, error) {
	return ConnectOptions(nil, addrs, cfg, Options{})
}

// ConnectOptions dials every worker address (nil transport = TCP) and
// assigns worker i to partition group i mod (len(addrs)/R), giving each
// group R replicas. Dials run in parallel and retry transient failures
// within the options' dial budget.
func ConnectOptions(tr Transport, addrs []string, cfg engine.Config, opts Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("cluster: no worker addresses")
	}
	if tr == nil {
		tr = TCPTransport{}
	}
	r := opts.replication()
	nGroups := len(addrs) / r
	if nGroups < 1 {
		nGroups = 1
	}
	c := &Cluster{cfg: cfg, opts: opts, tr: tr, nGroups: nGroups}
	slots := make([]*slot, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			conn, err := dialRetry(tr, addr, opts.dialBudget())
			if err != nil {
				errs[i] = fmt.Errorf("cluster: connecting %s: %w", addr, err)
				return
			}
			slots[i] = &slot{addr: addr, group: i % nGroups, cl: newClientConn(conn, addr, opts.FrameTimeout), gen: 1}
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range slots {
				if s != nil {
					s.cl.Close()
				}
			}
			return nil, err
		}
	}
	c.slots = slots
	if opts.HealthInterval > 0 {
		c.stopMonitor = make(chan struct{})
		c.monitorWG.Add(1)
		go c.monitor(opts.HealthInterval)
	}
	return c, nil
}

// Clients returns the current per-worker clients in worker order
// (a worker that is down and awaiting reconnect contributes its dead
// client, so wire counters remain visible).
func (c *Cluster) Clients() []*Client {
	var out []*Client
	for _, s := range c.slots {
		s.mu.Lock()
		if s.cl != nil {
			out = append(out, s.cl)
		}
		s.mu.Unlock()
	}
	return out
}

// Close stops the health monitor and disconnects from all workers.
func (c *Cluster) Close() {
	if c.stopMonitor != nil {
		close(c.stopMonitor)
		c.monitorWG.Wait()
		c.stopMonitor = nil
	}
	for _, s := range c.slots {
		s.mu.Lock()
		if s.cl != nil {
			s.cl.Close()
		}
		s.down = true
		s.mu.Unlock()
	}
}

// BytesReceived sums bytes the root has received from all workers.
func (c *Cluster) BytesReceived() int64 {
	var n int64
	for _, cl := range c.Clients() {
		n += cl.BytesReceived()
	}
	return n
}

// WireStats returns per-connection transport counters for every worker
// connection, in Clients() order.
func (c *Cluster) WireStats() []WireStats {
	cls := c.Clients()
	out := make([]WireStats, len(cls))
	for i, cl := range cls {
		out[i] = cl.WireStats()
	}
	return out
}

// ExpandSource substitutes the {worker} placeholder in a source spec
// with the worker's partition group, so one redo-log record describes
// every group's shard (e.g. "dir:/data/shard-{worker}"). Replicas of a
// group expand to the identical spec — and because sources are pure
// functions of their specs, they hold bit-identical data.
func ExpandSource(source string, group int) string {
	return strings.ReplaceAll(source, "{worker}", strconv.Itoa(group))
}

// Loader returns an engine.Loader that loads a source across the
// cluster: every worker loads its group's shard ({worker} expanded to
// the group index), and the returned dataset fans sketches out over the
// groups with replica failover. Plugging this loader into
// engine.NewRoot gives the full distributed root: redo-logged loads,
// replay-on-miss, computation caching — over the wire, surviving
// worker loss.
func (c *Cluster) Loader() engine.Loader {
	return func(id, source string) (engine.IDataSet, error) {
		d := &dataset{c: c, id: id, source: source}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if err := d.materialize(ctx); err != nil {
			return nil, err
		}
		return d, nil
	}
}

// failoverOptions is the cluster's failover policy. Retryable failures
// are exactly the ones that say nothing about the data: lost connections
// and missing (evicted) datasets — another replica regenerates the
// identical bits.
func (c *Cluster) failoverOptions() engine.FailoverOptions {
	return engine.FailoverOptions{
		Retryable: func(err error) bool {
			return errors.Is(err, ErrWorkerLost) || errors.Is(err, engine.ErrMissingDataset)
		},
		OnEvent: c.recordEvent,
	}
}
