package ingest

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/table"
)

// columnProbe records, per partition ID, the column object a scan read
// for Col. It never crosses the wire, so it registers no tag.
type columnProbe struct {
	Col string

	mu  sync.Mutex
	got map[string]table.Column
}

func (p *columnProbe) Name() string                                    { return "column-probe" }
func (p *columnProbe) Zero() sketch.Result                             { return &sketch.Moments{} }
func (p *columnProbe) Merge(a, _ sketch.Result) (sketch.Result, error) { return a, nil }
func (p *columnProbe) Columns() []string                               { return []string{p.Col} }

func (p *columnProbe) Summarize(t *table.Table) (sketch.Result, error) {
	col, err := t.Column(p.Col)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.got == nil {
		p.got = make(map[string]table.Column)
	}
	p.got[t.ID()] = col
	return p.Zero(), nil
}

// TestViewsShareSealColumns pins the tentpole's sharing: a filter view
// made at generation g and the root view replayed at g+1 read the
// identical column object for the seal both cover — the replay opens the
// one new file and re-reads nothing. The pool is flushed in between, so
// the identity comes from the file's weak column cache while the filter
// view holds the column, not only from a pool hit.
func TestViewsShareSealColumns(t *testing.T) {
	ctx := context.Background()
	pool := colstore.NewPool(0)
	var root *engine.Root
	st := NewStore("root", StoreConfig{FS: NewMemFS(), SegmentRows: -1, Pool: pool,
		OnSeal: func(name string, _ Partition) {
			if root != nil {
				root.Advance(name)
			}
		}})
	d, err := st.Create("ds", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(lo int) {
		t.Helper()
		if err := d.AppendRows(ctx, testRows(lo, 20)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Seal(ctx); err != nil {
			t.Fatal(err)
		}
	}
	seal(0)
	root = engine.NewRoot(st.WrapLoader(nil, engine.Config{Parallelism: 2, AggregationWindow: -1}))
	if _, err := root.Load("ds", SourcePrefix+"ds"); err != nil {
		t.Fatal(err)
	}
	filtered, err := root.Filter("ds", "f", "a >= 5")
	if err != nil {
		t.Fatal(err)
	}
	seal(20) // generation g+1: the root view replays on its next use
	pool.EvictAll()
	replayed, err := root.Get("ds")
	if err != nil {
		t.Fatal(err)
	}
	if replayed.NumLeaves() != 2 {
		t.Fatalf("replayed view has %d partitions, want 2", replayed.NumLeaves())
	}

	probe := &columnProbe{Col: "b"}
	for _, ds := range []engine.IDataSet{filtered, replayed} {
		if _, err := ds.Sketch(ctx, probe, nil); err != nil {
			t.Fatal(err)
		}
	}
	fromFilter, fromRoot := probe.got[engine.DerivePartID("f", 0)], probe.got["ds/part-000001"]
	if fromFilter == nil || fromRoot == nil {
		t.Fatalf("probe saw partitions %v", probe.got)
	}
	if fromFilter != fromRoot {
		t.Fatal("the filter view at g and the root view at g+1 read different column objects for seal 1")
	}
	if probe.got["ds/part-000002"] == fromRoot {
		t.Fatal("two seals share one column object")
	}
}

// TestRecoveryRefusesBadPartition: recovery verifies a referenced
// partition without decoding it, on the OS filesystem and on the
// in-memory one alike. A flipped byte inside a column block fails its
// CRC, and a valid file whose row count disagrees with the manifest is
// refused too.
func TestRecoveryRefusesBadPartition(t *testing.T) {
	damage := map[string]func(part1, part2 []byte) []byte{
		"flipped block byte": func(part1, _ []byte) []byte {
			out := append([]byte(nil), part1...)
			out[len(out)-5] ^= 0x40 // the last block byte the CRC covers
			return out
		},
		"row count disagrees with manifest": func(_, part2 []byte) []byte { return part2 },
	}
	filesystems := map[string]func(t *testing.T) (FS, string){
		"OSFS":  func(t *testing.T) (FS, string) { return OSFS{}, filepath.Join(t.TempDir(), "ds") },
		"MemFS": func(*testing.T) (FS, string) { return NewMemFS(), "root/ds" },
	}
	for fsName, mkfs := range filesystems {
		for what, corrupt := range damage {
			t.Run(fsName+"/"+what, func(t *testing.T) {
				ctx := context.Background()
				fs, dir := mkfs(t)
				d := mustDataset(t, fs, dir, Config{SegmentRows: -1})
				for _, n := range []int{10, 5} {
					if err := d.AppendRows(ctx, testRows(0, n)); err != nil {
						t.Fatal(err)
					}
					if _, err := d.Seal(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := Open(dir, Config{FS: fs}); err != nil {
					t.Fatalf("intact dataset: %v", err)
				}
				path1 := filepath.Join(dir, partName(1))
				part1, err := fs.ReadFile(path1)
				if err != nil {
					t.Fatal(err)
				}
				part2, err := fs.ReadFile(filepath.Join(dir, partName(2)))
				if err != nil {
					t.Fatal(err)
				}
				f, err := fs.Create(path1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(corrupt(part1, part2)); err != nil {
					t.Fatal(err)
				}
				f.Close()
				_, err = Open(dir, Config{FS: fs})
				if err == nil || !strings.Contains(err.Error(), "unreadable partition "+partName(1)) {
					t.Fatalf("Open = %v, want the damaged partition refused", err)
				}
			})
		}
	}
}

// BenchmarkIngestReplay measures the replay after a seal: the loader call
// that rebuilds an ingest dataset's leaf source once a seal has advanced
// its generation, before any scan. The dataset holds 24 sealed
// partitions of 100,000 flights rows on the OS filesystem; every
// iteration seals one more (untimed in the reported metrics) and then
// replays. replay-ms and replay-B are per replay; ns/op also counts the
// seal. Run it with a fixed count, e.g. -benchtime 5x.
func BenchmarkIngestReplay(b *testing.B) {
	const seals, rows = 24, 100000
	ctx := context.Background()
	batch := flights.Gen("replay", rows, 1, flights.CoreColumns)
	batchRows := batch.Rows()
	st := NewStore(b.TempDir(), StoreConfig{SegmentRows: -1})
	defer st.Close()
	d, err := st.Create("fl", batch.Schema())
	if err != nil {
		b.Fatal(err)
	}
	seal := func() {
		if err := d.AppendRows(ctx, batchRows); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Seal(ctx); err != nil {
			b.Fatal(err)
		}
	}
	for range seals - 1 {
		seal()
	}
	loader := st.WrapLoader(nil, engine.Config{})
	if _, err := loader("fl", SourcePrefix+"fl"); err != nil {
		b.Fatal(err)
	}
	var (
		elapsed       time.Duration
		before, after runtime.MemStats
		allocated     uint64
	)
	// One P for the measured window, as testing.AllocsPerRun pins it: a
	// sync.Pool's per-P slot is missed by a goroutine that changes P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ResetTimer()
	for range b.N {
		seal()
		runtime.ReadMemStats(&before)
		start := time.Now()
		ds, err := loader("fl", SourcePrefix+"fl")
		elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		if err != nil {
			b.Fatal(err)
		}
		if ds.NumLeaves() != len(d.Partitions()) {
			b.Fatalf("replay serves %d partitions, want %d", ds.NumLeaves(), len(d.Partitions()))
		}
	}
	b.ReportMetric(float64(elapsed.Microseconds())/1000/float64(b.N), "replay-ms")
	b.ReportMetric(float64(allocated)/float64(b.N), "replay-B")
}
