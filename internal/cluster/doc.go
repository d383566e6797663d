// Package cluster is the distribution substrate of Hillview (paper §5.2
// and §6): worker servers hold dataset partitions and run vizketch
// summarize functions; the root connects to workers over TCP and builds
// execution trees whose remote edges carry only small messages —
// queries down, summaries up.
//
// The paper uses gRPC with RxJava streams; under the stdlib-only
// constraint this package implements the same contract with
// length-prefixed binary frames over net.Conn: request multiplexing
// over one connection per worker, server-streamed partial results,
// out-of-band cancellation that bypasses request queues (paper §5.3),
// and per-connection byte/frame/codec-time accounting (which the
// evaluation harness uses to reproduce the bandwidth measurements of
// Figure 5, surfaced in production through /api/status).
//
// # Wire format
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload:
//
//	magic (0x48 'H') | version (0x02) | kind | flags | uvarint reqID | body | crc32c
//
// The codec is stateless: frames are self-contained, and neither end of
// a connection keeps per-request codec state. Frames are encoded by
// hand-rolled per-type codecs (no reflection) with little-endian
// fixed-width words for counter/float arrays and uvarints for lengths
// (package wire). Any frame decodes in isolation, so byte-level frame
// duplication — which corrupted the seed's stateful per-connection gob
// stream ("duplicate type received") — is now a tolerated fault, and
// the chaos harness injects it at the transport layer.
//
// The trailing CRC-32C covers the payload between the outer length and
// itself. It defends against stream desynchronization, not TCP bit rot:
// a frame truncated mid-write whose connection keeps delivering bytes
// splices the next frames into its own body, and such a splice can
// parse into a plausible envelope with garbage values. The checksum
// turns every splice into a decode error, which fails the connection
// and hands the in-flight ranges to the failover path below.
//
// Frame kinds and bodies (strings are uvarint-length-prefixed):
//
//	MsgLoad      datasetID, source
//	MsgMap       datasetID, newID, opTag, op body        (engine.AppendOpWire)
//	MsgSketch    datasetID, sketchTag, sketch body       (sketch.AppendSketchWire)
//	MsgCancel    —
//	MsgPing      —
//	MsgOK        uvarint numLeaves
//	MsgPartial   uvarint done, total, resultTag, result body
//	MsgFinal     uvarint done, total, resultTag, result body
//	MsgError     err string                              (flagErrMissing in flags)
//
// Kinds 5 and 11 are retired and decode as unknown kinds. Per-type
// tags are registered in sketch (RegisterResultCodec /
// RegisterSketchCodec; the tag tables in sketch/codec.go list every
// tag, including those that storage and tests register) and engine (the
// MapOp switch); tag spaces are independent, tag 0 is reserved, and
// tags are append-only wire format. Sketch tags 2, 3 (the sampled and
// CDF histograms, now tag 1's Rate and Seed) and 15 are retired: a
// request carrying one gets MsgError "unknown sketch tag N". A sketch
// body is the sketch's whole configuration — a MultiSketch is its
// members and nothing else — so a worker computes exactly what the root
// would locally.
//
// # Partials
//
// A partial is a full cumulative snapshot of its request, cut at the
// aggregation-window rate (engine.Config.AggregationWindow) while
// partitions remain; a worker never sends one with done == total. The
// final is the only frame that carries a request's complete result. A
// duplicated or dropped partial is harmless: the root keeps a range's
// latest snapshot only while its done does not move backwards.
//
// # One codec
//
// A type without a codec does not cross the wire; a body that does not
// decode fails its request. An envelope whose sketch, map op or result
// has no registered codec (a MultiSketch or MultiResult with such a
// member included) is an encode error at the sender before anything is
// written, so the request fails without touching the connection. On the
// worker, a request frame that passes the length, checksum, magic,
// version and kind checks but whose body does not decode — an unknown
// tag, a corrupt member, trailing bytes — is answered with MsgError for
// its request ID, and the connection keeps serving: the checksum proves
// the stream is in sync. Framing errors drop the connection, and so
// does any decode error on the root's side.
//
// The registration contract for a new sketch: add the prototype to
// sketch.wireSketches, implement WireSketch on the sketch and
// WireResult on its summary, register both under fresh tags, and add a
// case to testkit's oracle contract switch and a testkit instance — the
// codec coverage test (sketch.TestWireCodecCoverage) and the oracle
// coverage test each fail a sketch that skips its half.
//
// # Replica map
//
// ConnectOptions with Options.Replication = R splits the worker list
// into len(addrs)/R partition groups; worker i serves group i mod
// nGroups, so every group has R replicas. The map relies on a property
// the storage layer already guarantees: a dataset source is a pure
// function of its spec string, and {worker} in a source expands to the
// partition *group*, not the worker index. Two replicas of a group
// therefore regenerate bit-identical shards — same partition IDs, hence
// same per-partition sampling seeds — and answering any range of leaves
// from either replica yields byte-for-byte the same summaries. The
// replicated dataset verifies this at load time (replicas of one group
// must report identical leaf counts) and poisons the dataset with a
// hard "not a pure function of its spec" error rather than serve from
// diverged replicas.
//
// The replica map is fixed by ConnectOptions for the cluster's
// lifetime: a worker is restarted or reconnected, never added, removed
// or moved to another group. Datasets are materialized lazily per
// worker with a generation counter that only a reconnect bumps: a
// reconnected worker starts at a new generation, and the first query
// that touches it replays the dataset's lineage (Load, then the MapOp
// chain) before sketching, so stale state is never consulted.
//
// # Failover and dedup
//
// Queries run through engine.SketchReplicated: each group's leaf range
// is dispatched to one replica at a time (healthy first); a retryable
// failure — ErrWorkerLost (connection dead, checksum mismatch,
// watchdogged frame stall) or engine.ErrMissingDataset (worker
// restarted) — re-dispatches the range on the next surviving replica.
// Because summaries are mergeable and replicas bit-identical, retries
// are deduplicated at merge time by partition range — a group's result
// is folded exactly once, in range order, so the answer under failover
// is bit-identical to the fault-free run (the flipped chaos contract:
// testkit.RunFailover asserts exactly this). When every replica of a
// group is gone the query fails promptly with a clean error — never a
// hang, never a partial answer presented as total.
//
// A background monitor (Options.HealthInterval) pings workers, marks a
// worker down after three consecutive transport failures (at once when
// its connection is dead), and redials dead workers with capped
// exponential backoff; recovered workers rejoin their group at a fresh
// generation. Failover telemetry — per-worker health plus
// retry/loss/reconnect counters — is surfaced by Cluster.Stats and
// /api/status.
package cluster
