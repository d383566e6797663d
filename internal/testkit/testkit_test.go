package testkit

import (
	"bytes"
	"flag"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/testkit/seedtest"
)

// CI invokes the harness with rotating seeds:
//
//	go test -race ./internal/testkit -testkit.seeds=20 -testkit.base=$RUN
//
// so every CI run explores a fresh seed window while any failure names
// the exact seed to replay locally.
var (
	seedsFlag    = flag.Int("testkit.seeds", 4, "number of three-way oracle seeds to run")
	faultsFlag   = flag.Int("testkit.faultseeds", 2, "number of fault-battery seeds to run")
	pooledFlag   = flag.Int("testkit.pooledseeds", 2, "number of pooled column-store seeds to run")
	failoverFlag = flag.Int("testkit.failoverseeds", 1, "number of replicated-failover battery seeds to run")
	overloadFlag = flag.Int("testkit.overloadseeds", 1, "number of overload-battery seeds to run")
	batchedFlag  = flag.Int("testkit.batchedseeds", 2, "number of scan-batching differential seeds to run")
	ingestFlag   = flag.Int("testkit.ingestseeds", 2, "number of ingest crash-battery seeds to run")
	baseFlag     = flag.Uint64("testkit.base", 1, "first seed of the window")
)

// TestOracleSeeds runs the three-way differential oracle across the
// seed window.
func TestOracleSeeds(t *testing.T) {
	for i := 0; i < *seedsFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := Run(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestOracleSeeds/seed=%d$' -testkit.base=%d -testkit.seeds=1", err, seed, seed)
			}
		})
	}
}

// TestFaultSchedules runs the fault battery across its seed window.
func TestFaultSchedules(t *testing.T) {
	for i := 0; i < *faultsFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := RunFaults(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestFaultSchedules/seed=%d$' -testkit.base=%d -testkit.faultseeds=1", err, seed, seed)
			}
		})
	}
}

// TestFailoverSchedules runs the replicated-failover battery — the
// flipped fault contract — across its seed window.
func TestFailoverSchedules(t *testing.T) {
	for i := 0; i < *failoverFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := RunFailover(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestFailoverSchedules/seed=%d$' -testkit.base=%d -testkit.failoverseeds=1", err, seed, seed)
			}
		})
	}
}

// TestOverloadSchedules runs the serving-layer overload battery — 100
// concurrent clients against a small-capacity scheduler over a shared
// 2-replica cluster — across its seed window.
func TestOverloadSchedules(t *testing.T) {
	for i := 0; i < *overloadFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := RunOverload(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestOverloadSchedules/seed=%d$' -testkit.base=%d -testkit.overloadseeds=1", err, seed, seed)
			}
		})
	}
}

// TestBatchedSeeds runs the scan-batching differential — pairs and
// triples of harness sketches through MultiSketch on the reference,
// parallel-engine, and scheduler-batched paths, every member demanded
// bit-identical to its solo run — across its seed window.
func TestBatchedSeeds(t *testing.T) {
	for i := 0; i < *batchedFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := RunBatched(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestBatchedSeeds/seed=%d$' -testkit.base=%d -testkit.batchedseeds=1", err, seed, seed)
			}
		})
	}
}

// TestIngestSeeds runs the streaming-ingestion battery — append-prefix
// bit-identity through the full serving stack, standing-query
// incremental folds, and the crash-point recovery sweep — across its
// seed window.
func TestIngestSeeds(t *testing.T) {
	for i := 0; i < *ingestFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := RunIngest(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestIngestSeeds/seed=%d$' -testkit.base=%d -testkit.ingestseeds=1", err, seed, seed)
			}
		})
	}
}

// TestPooledSeeds runs the column-store differential (HVC2 files,
// mmap, pool budget ≈ 25% of data) across its seed window.
func TestPooledSeeds(t *testing.T) {
	for i := 0; i < *pooledFlag; i++ {
		seed := *baseFlag + uint64(i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := RunPooled(seed); err != nil {
				t.Fatalf("%v\nreproduce with: go test ./internal/testkit -run 'TestPooledSeeds/seed=%d$' -testkit.base=%d -testkit.pooledseeds=1", err, seed, seed)
			}
		})
	}
}

// TestPooledTinyBudget runs one seed with a budget of a single byte
// (via HILLVIEW_POOL_BUDGET, which RunPooled only ever tightens with):
// every column acquire is a cold load and every release an eviction —
// the maximum-churn degenerate case must still be bit-correct.
func TestPooledTinyBudget(t *testing.T) {
	t.Setenv(storage.PoolBudgetEnv, "1")
	if err := RunPooled(*baseFlag); err != nil {
		t.Fatalf("tiny budget: %v", err)
	}
}

// TestOracleCoversWireSketches pins the acceptance criterion: every
// sketch registered on the wire has an oracle contract AND at least one
// harness instance exercising it.
func TestOracleCoversWireSketches(t *testing.T) {
	_, info := table.GenPartitions("cov", 1, 64, 1)
	have := map[reflect.Type]int{}
	for _, sk := range Instances(1, info) {
		have[reflect.TypeOf(sk)]++
	}
	for _, proto := range sketch.WireSketches() {
		typ := reflect.TypeOf(proto)
		if _, _, err := contract(proto); err != nil {
			t.Errorf("%v: wire-registered but %v", typ, err)
		}
		if have[typ] == 0 {
			t.Errorf("%v: wire-registered but no harness instance runs it", typ)
		}
	}
}

// TestEqualCacheKeysMeanEqualSketches: a cache key stands for a
// sketch's whole configuration, so two cacheable sketches with equal
// CacheKey must encode to the same wire bytes. Besides every harness
// instance, it tries histogram geometries that differ only in
// ExactValues, only in Kind, or in where a "|" sits inside a bound.
func TestEqualCacheKeysMeanEqualSketches(t *testing.T) {
	var sks []sketch.Sketch
	for seed := uint64(1); seed <= 3; seed++ {
		_, info := table.GenPartitions("key", seed, 64, 1)
		sks = append(sks, Instances(seed, info)...)
	}
	otherKind := map[table.Kind]table.Kind{table.KindInt: table.KindDouble, table.KindDouble: table.KindDate, table.KindDate: table.KindInt}
	for _, sk := range append([]sketch.Sketch(nil), sks...) {
		h, ok := sk.(*sketch.HistogramSketch)
		if !ok {
			continue
		}
		v := *h
		if h.Buckets.Kind == table.KindString {
			v.Buckets.ExactValues = !v.Buckets.ExactValues
		} else {
			v.Buckets.Kind = otherKind[v.Buckets.Kind]
		}
		sks = append(sks, &v)
	}
	for _, bounds := range [][]string{{"a|b", "c"}, {"a", "b|c"}} {
		sks = append(sks, &sketch.HistogramSketch{Col: "gs", Buckets: sketch.StringBucketsFromBounds(bounds, false)})
	}
	byKey := map[string][]byte{}
	for _, sk := range sks {
		c, ok := sk.(sketch.Cacheable)
		if !ok {
			continue
		}
		enc, ok := sketch.AppendSketchWire(nil, sk)
		if !ok {
			t.Fatalf("%T has no wire codec", sk)
		}
		if prev, seen := byKey[c.CacheKey()]; seen && !bytes.Equal(prev, enc) {
			t.Errorf("CacheKey %q names two different %T configurations", c.CacheKey(), sk)
		}
		byKey[c.CacheKey()] = enc
	}
}

// TestGenPartitionsDeterministic pins the generator property the
// cluster topology depends on: identical arguments produce
// bit-identical partitions, including IDs, across calls (and therefore
// across processes).
func TestGenPartitionsDeterministic(t *testing.T) {
	_, seed := seedtest.Rand(t)
	a, infoA := table.GenPartitions("det", seed, 500, 3)
	b, infoB := table.GenPartitions("det", seed, 500, 3)
	if !reflect.DeepEqual(infoA, infoB) {
		t.Fatal("GenInfo not deterministic")
	}
	if len(a) != len(b) {
		t.Fatalf("partition counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() {
			t.Errorf("partition %d IDs differ: %q vs %q", i, a[i].ID(), b[i].ID())
		}
		if !reflect.DeepEqual(a[i].Rows(), b[i].Rows()) {
			t.Errorf("partition %d rows differ", i)
		}
	}
}
