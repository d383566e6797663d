package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/engine"
)

// Options tunes cluster replication and health tracking. The zero value
// is one replica per partition group and no background monitor, plus a
// dial-retry budget so Connect survives slow worker startup.
type Options struct {
	// Replication is the number of workers per partition group (R-way).
	// Workers are assigned round-robin: worker i serves group i mod
	// (workers/R). 0 or 1 means no replication. Because partitions are
	// pure functions of their source specs, replicas cost no data
	// movement — each replica of a group loads the identical shard.
	Replication int
	// HealthInterval enables the background monitor: every interval,
	// live workers are pinged and down workers redialed (with capped
	// exponential backoff). 0 disables the monitor; down workers are
	// then revived only by explicit ReconnectWorker calls.
	HealthInterval time.Duration
	// DialRetryBudget bounds transient-dial retries in Connect and
	// reconnects (0 = 3s, negative = single attempt).
	DialRetryBudget time.Duration
	// FrameTimeout is the mid-frame read watchdog on root-side
	// connections (0 = 10s, negative = disabled).
	FrameTimeout time.Duration
}

// failureThreshold is the circuit breaker: this many consecutive
// transport failures mark a worker down. A dead connection trips it
// immediately regardless of the count.
const failureThreshold = 3

func (o Options) replication() int {
	if o.Replication < 1 {
		return 1
	}
	return o.Replication
}

func (o Options) dialBudget() time.Duration {
	switch {
	case o.DialRetryBudget < 0:
		return 0
	case o.DialRetryBudget == 0:
		return 3 * time.Second
	default:
		return o.DialRetryBudget
	}
}

// slot is the root's health record for one worker: its partition group
// (fixed at Connect), its current connection, liveness state, and the
// generation counter that invalidates per-worker dataset
// materializations whenever the connection changes.
type slot struct {
	addr  string
	group int

	mu          sync.Mutex
	cl          *Client
	gen         uint64 // bumped on reconnect
	down        bool
	consecFails int
	reconnects  int64
	lastPingNS  int64
	backoff     time.Duration
	nextRedial  time.Time
	probing     bool // a monitor probe/redial is in flight
}

// liveClient returns the slot's usable connection and its generation,
// or an ErrWorkerLost-wrapped error when the worker is down. It never
// dials: within a query, failover targets only workers that are already
// connected — reviving dead ones is the monitor's job between queries,
// so a query against a fully-dead group fails cleanly instead of
// blocking on reconnect attempts.
func (s *slot) liveClient() (*Client, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || s.cl == nil || s.cl.Dead() {
		return nil, 0, fmt.Errorf("%w: %s is down", ErrWorkerLost, s.addr)
	}
	return s.cl, s.gen, nil
}

func (s *slot) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down && s.cl != nil && !s.cl.Dead()
}

// noteOutcome feeds one request outcome into the slot's circuit
// breaker. Only transport-level failures count — a deterministic worker
// error says the query is wrong, not the worker.
func (c *Cluster) noteOutcome(s *slot, err error) {
	if err == nil {
		s.mu.Lock()
		s.consecFails = 0
		s.mu.Unlock()
		return
	}
	if !errors.Is(err, ErrWorkerLost) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails++
	dead := s.cl == nil || s.cl.Dead()
	if !s.down && (dead || s.consecFails >= failureThreshold) {
		s.down = true
		if s.cl != nil {
			s.cl.Close()
		}
		s.backoff = 0
		s.nextRedial = time.Time{} // first redial may happen immediately
	}
}

// ReconnectWorker redials a (down or live) worker immediately, swapping
// in a fresh connection and bumping the slot's generation so datasets
// re-materialize lazily on next use. The health monitor calls this with
// backoff; tests and operators may call it directly.
func (c *Cluster) ReconnectWorker(addr string) error {
	s := c.slotByAddr(addr)
	if s == nil {
		return fmt.Errorf("cluster: no worker %s", addr)
	}
	conn, err := dialRetry(c.tr, addr, c.opts.dialBudget())
	if err != nil {
		return fmt.Errorf("cluster: reconnecting %s: %w", addr, err)
	}
	cl := newClientConn(conn, addr, c.opts.FrameTimeout)
	s.mu.Lock()
	if s.cl != nil {
		s.cl.Close()
	}
	s.cl = cl
	s.gen++
	s.down = false
	s.consecFails = 0
	s.backoff = 0
	s.reconnects++
	s.mu.Unlock()
	c.reconnects.Add(1)
	return nil
}

func (c *Cluster) slotByAddr(addr string) *slot {
	for _, s := range c.slots {
		if s.addr == addr {
			return s
		}
	}
	return nil
}

// monitor is the background health loop: ping live workers, redial down
// ones under capped exponential backoff with jitter.
func (c *Cluster) monitor(interval time.Duration) {
	defer c.monitorWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopMonitor:
			return
		case <-t.C:
			c.healthTick(interval)
		}
	}
}

func (c *Cluster) healthTick(interval time.Duration) {
	for _, s := range c.slots {
		s.mu.Lock()
		if s.probing {
			s.mu.Unlock()
			continue
		}
		down := s.down || s.cl == nil || s.cl.Dead()
		if down && time.Now().Before(s.nextRedial) {
			s.mu.Unlock()
			continue
		}
		cl := s.cl
		s.probing = true
		s.mu.Unlock()
		go func(s *slot, down bool, cl *Client) {
			defer func() {
				s.mu.Lock()
				s.probing = false
				s.mu.Unlock()
			}()
			if down {
				if err := c.ReconnectWorker(s.addr); err != nil {
					s.mu.Lock()
					if s.backoff == 0 {
						s.backoff = interval
					} else if s.backoff < 30*time.Second {
						s.backoff *= 2
					}
					s.nextRedial = time.Now().Add(s.backoff + time.Duration(rand.Int64N(int64(s.backoff/2)+1)))
					s.mu.Unlock()
				}
				return
			}
			timeout := min(max(interval, 50*time.Millisecond), 2*time.Second)
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			start := time.Now()
			err := cl.Ping(ctx)
			cancel()
			if err == nil {
				s.mu.Lock()
				s.lastPingNS = time.Since(start).Nanoseconds()
				s.mu.Unlock()
				c.noteOutcome(s, nil)
				return
			}
			c.noteOutcome(s, fmt.Errorf("%w: ping %s: %v", ErrWorkerLost, s.addr, err))
		}(s, down, cl)
	}
}

// WorkerHealth is one worker's health snapshot in Stats.
type WorkerHealth struct {
	Addr                string
	Group               int
	State               string // "up" or "down"
	ConsecutiveFailures int
	Reconnects          int64
	Generation          uint64
	LastPingNS          int64
}

// Stats is the cluster's replication and failover telemetry, surfaced
// through /api/status next to the wire counters.
type Stats struct {
	Groups      int
	Replication int
	Workers     []WorkerHealth

	// Retries counts partition ranges re-dispatched after a replica
	// failure; GroupsLost counts ranges whose every replica failed (each
	// one a cleanly-errored query); Reconnects counts successful worker
	// redials.
	Retries    int64
	GroupsLost int64
	Reconnects int64
}

// Stats returns a snapshot of per-worker health and failover counters.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Groups:      c.nGroups,
		Replication: c.opts.replication(),
		Retries:     c.retries.Load(),
		GroupsLost:  c.groupsLost.Load(),
		Reconnects:  c.reconnects.Load(),
	}
	for _, s := range c.slots {
		s.mu.Lock()
		state := "up"
		if s.down || s.cl == nil || s.cl.Dead() {
			state = "down"
		}
		st.Workers = append(st.Workers, WorkerHealth{
			Addr:                s.addr,
			Group:               s.group,
			State:               state,
			ConsecutiveFailures: s.consecFails,
			Reconnects:          s.reconnects,
			Generation:          s.gen,
			LastPingNS:          s.lastPingNS,
		})
		s.mu.Unlock()
	}
	return st
}

// recordEvent folds engine failover telemetry into the counters.
func (c *Cluster) recordEvent(e engine.FailoverEvent) {
	switch e.Kind {
	case engine.EventFailover:
		c.retries.Add(1)
	case engine.EventGroupLost:
		c.groupsLost.Add(1)
	}
}
