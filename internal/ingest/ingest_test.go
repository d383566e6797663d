package ingest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

func testRows(lo, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{
			table.IntValue(int64(lo + i)),
			table.StringValue(fmt.Sprintf("s%03d", (lo+i)%7)),
		}
	}
	return rows
}

func mustDataset(t *testing.T, fs FS, dir string, cfg Config) *Dataset {
	t.Helper()
	cfg.FS = fs
	d, err := Create(dir, testSchema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAppendSealLoadRoundTrip(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	d := mustDataset(t, fs, "root/ds", Config{SegmentRows: -1})
	if err := d.AppendRows(ctx, testRows(0, 10)); err != nil {
		t.Fatal(err)
	}
	if got := d.OpenRows(); got != 10 {
		t.Fatalf("OpenRows = %d, want 10", got)
	}
	p, err := d.Seal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Seq != 1 || p.Rows != 10 || p.Name != "part-000001.hvc" {
		t.Fatalf("sealed partition = %+v", p)
	}
	if err := d.AppendRows(ctx, testRows(10, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	if got := d.Generation(); got != 2 {
		t.Fatalf("generation = %d, want 2", got)
	}

	parts := sealed(t, d)
	if len(parts) != 2 || parts[0].NumRows() != 10 || parts[1].NumRows() != 5 {
		t.Fatalf("loaded %d parts, rows %v", len(parts), parts)
	}
	if parts[0].ID() != "ds/part-000001" || parts[1].ID() != "ds/part-000002" {
		t.Fatalf("partition IDs not stable: %q %q", parts[0].ID(), parts[1].ID())
	}
	// Row content survives the round trip.
	want := testRows(0, 10)
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(parts[0].GetRow(i), want[i]) {
			t.Fatalf("row %d = %+v, want %+v", i, parts[0].GetRow(i), want[i])
		}
	}

	// An empty seal is a no-op.
	if p, err := d.Seal(ctx); err != nil || p != nil {
		t.Fatalf("empty seal = (%+v, %v), want (nil, nil)", p, err)
	}
}

func TestAutoSealThreshold(t *testing.T) {
	ctx := context.Background()
	d := mustDataset(t, NewMemFS(), "root/ds", Config{SegmentRows: 8})
	for i := 0; i < 5; i++ {
		if err := d.AppendRows(ctx, testRows(i*3, 3)); err != nil {
			t.Fatal(err)
		}
	}
	// 15 rows with a threshold of 8: the 3rd append (9 rows) seals, then
	// 6 more rows stay buffered.
	if got := len(d.Partitions()); got != 1 {
		t.Fatalf("auto-sealed partitions = %d, want 1", got)
	}
	if got := d.Partitions()[0].Rows; got != 9 {
		t.Fatalf("auto-sealed rows = %d, want 9", got)
	}
	if got := d.OpenRows(); got != 6 {
		t.Fatalf("open rows = %d, want 6", got)
	}
}

func TestReopenRecoversLiveSet(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	d := mustDataset(t, fs, "root/ds", Config{SegmentRows: -1})
	for i := 0; i < 3; i++ {
		if err := d.AppendRows(ctx, testRows(i*4, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Seal(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before := sealed(t, d)
	// Buffered-but-unsealed rows are volatile by contract; Close seals
	// them, so append some and close.
	if err := d.AppendRows(ctx, testRows(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRows(ctx, testRows(0, 1)); err == nil {
		t.Fatal("append after Close succeeded")
	}

	re, err := Open("root/ds", Config{FS: fs, SegmentRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Partitions()); got != 4 {
		t.Fatalf("recovered partitions = %d, want 4 (3 + close-seal)", got)
	}
	after := sealed(t, re)
	for i := range before {
		if !reflect.DeepEqual(tableRows(before[i]), tableRows(after[i])) {
			t.Fatalf("partition %d changed across reopen", i)
		}
	}
	if re.Generation() != 4 {
		t.Fatalf("recovered generation = %d, want 4", re.Generation())
	}
}

// sealed acquires every live partition of d the way a query does:
// through the dataset's handles and pool, every column.
func sealed(t *testing.T, d *Dataset) []*table.Table {
	t.Helper()
	src, err := d.source()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*table.Table, len(src.Leaves()))
	for i := range out {
		p, release, err := src.Acquire(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
		out[i] = p
	}
	return out
}

func tableRows(t *table.Table) []table.Row {
	out := make([]table.Row, 0, t.NumRows())
	t.Members().Iterate(func(i int) bool {
		out = append(out, t.GetRow(i))
		return true
	})
	return out
}

func TestRecoveryRemovesOrphans(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	d := mustDataset(t, fs, "root/ds", Config{SegmentRows: -1})
	if err := d.AppendRows(ctx, testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	d.Close()
	// A crashed seal leaves a temp file and an unreferenced partition.
	fs.put("root/ds/part-000002.hvc.tmp", []byte("torn"))
	fs.put("root/ds/part-000002.hvc", []byte("unreferenced"))

	var m Metrics
	re, err := Open("root/ds", Config{FS: fs, Metrics: &m, SegmentRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("root/ds")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"MANIFEST", "part-000001.hvc"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("directory after recovery = %v, want %v", names, want)
	}
	if got := m.OrphansRemoved.Load(); got != 2 {
		t.Fatalf("orphans removed = %d, want 2", got)
	}
	// The reissued sequence number must not collide with the swept file.
	if err := re.AppendRows(ctx, testRows(50, 2)); err != nil {
		t.Fatal(err)
	}
	if p, err := re.Seal(ctx); err != nil || p.Seq != 2 {
		t.Fatalf("post-recovery seal = (%+v, %v)", p, err)
	}
}

func TestAppendValidation(t *testing.T) {
	ctx := context.Background()
	d := mustDataset(t, NewMemFS(), "root/ds", Config{})
	if err := d.AppendRows(ctx, []table.Row{{table.IntValue(1)}}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestStandingQueryMatchesReference(t *testing.T) {
	ctx := context.Background()
	d := mustDataset(t, NewMemFS(), "root/ds", Config{SegmentRows: -1})
	sk := &sketch.HistogramSketch{Col: "a", Buckets: sketch.NumericBuckets(table.KindInt, 0, 64, 8)}

	q, err := d.Register(sk)
	if err != nil {
		t.Fatal(err)
	}
	var mid *StandingQuery
	for i := 0; i < 4; i++ {
		if err := d.AppendRows(ctx, testRows(i*16, 16)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Seal(ctx); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Mid-stream registration must catch up on the sealed prefix.
			if mid, err = d.Register(sk); err != nil {
				t.Fatal(err)
			}
		}
	}

	reference := func() sketch.Result {
		var rs []sketch.Result
		for _, p := range sealed(t, d) {
			r, err := sk.Summarize(p)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, r)
		}
		res, err := sketch.MergeAll(sk, rs...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	for name, query := range map[string]*StandingQuery{"from-start": q, "mid-stream": mid} {
		res, upTo, err := query.Result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if upTo != 4 {
			t.Fatalf("%s: upTo = %d, want 4", name, upTo)
		}
		if !reflect.DeepEqual(res, reference) {
			t.Fatalf("%s: standing result differs from reference fold:\n%+v\n%+v", name, res, reference)
		}
	}

	if got := len(d.Standing()); got != 2 {
		t.Fatalf("standing queries = %d, want 2", got)
	}
	if _, ok := d.StandingByID(q.ID()); !ok {
		t.Fatal("StandingByID missed a registered query")
	}
}

func TestStoreLifecycle(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	var seals []string
	st := NewStore("root", StoreConfig{FS: fs, SegmentRows: -1, OnSeal: func(name string, p Partition) {
		seals = append(seals, fmt.Sprintf("%s/%d", name, p.Seq))
	}})
	d, err := st.Create("flights", testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create("flights", testSchema); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "a:b"} {
		if _, err := st.Create(bad, testSchema); err == nil {
			t.Fatalf("invalid name %q accepted", bad)
		}
	}
	if err := d.AppendRows(ctx, testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seals, []string{"flights/1"}) {
		t.Fatalf("OnSeal hook calls = %v", seals)
	}

	// The loader serves ingest: sources and delegates the rest.
	loader := st.WrapLoader(func(id, source string) (engine.IDataSet, error) {
		return nil, errors.New("inner called")
	}, engine.Config{Parallelism: 2, AggregationWindow: -1})
	ds, err := loader("view", "ingest:flights")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Sketch(ctx, &sketch.DistinctCountSketch{Col: "b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("nil sketch result through ingest loader")
	}
	if _, err := loader("x", "file:/nope.csv"); err == nil || err.Error() != "inner called" {
		t.Fatalf("non-ingest source not delegated: %v", err)
	}
	if _, err := loader("x", "ingest:absent"); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("unknown dataset: err = %v, want ErrNoDataset", err)
	}

	// Buffered rows seal on Close; a second store rediscovers the data.
	if err := d.AppendRows(ctx, testRows(10, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("flights"); err == nil {
		t.Fatal("Get on closed store succeeded")
	}

	st2 := NewStore("root", StoreConfig{FS: fs, SegmentRows: -1})
	opened, err := st2.OpenAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opened, []string{"flights"}) {
		t.Fatalf("OpenAll = %v, want [flights]", opened)
	}
	d2, err := st2.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d2.Partitions()); got != 2 {
		t.Fatalf("rediscovered partitions = %d, want 2", got)
	}
}
