package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
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

// testBatch is testRows as the typed batch Dataset.Append takes.
func testBatch(lo, n int) *table.Table {
	b := table.NewBuilder(testSchema, n)
	for _, row := range testRows(lo, n) {
		b.AppendRow(row)
	}
	return b.Freeze("batch")
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
	if err := d.Append(ctx, testBatch(0, 10)); err != nil {
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
	if err := d.Append(ctx, testBatch(10, 5)); err != nil {
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
		if err := d.Append(ctx, testBatch(i*3, 3)); err != nil {
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
		if err := d.Append(ctx, testBatch(i*4, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Seal(ctx); err != nil {
			t.Fatal(err)
		}
	}
	before := sealed(t, d)
	// Buffered-but-unsealed rows are volatile by contract; Close seals
	// them, so append some and close.
	if err := d.Append(ctx, testBatch(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(ctx, testBatch(0, 1)); err == nil {
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
	if err := d.Append(ctx, testBatch(0, 4)); err != nil {
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
	if err := re.Append(ctx, testBatch(50, 2)); err != nil {
		t.Fatal(err)
	}
	if p, err := re.Seal(ctx); err != nil || p.Seq != 2 {
		t.Fatalf("post-recovery seal = (%+v, %v)", p, err)
	}
}

// failingCreateFS is a MemFS on which the next Create of a partition
// temp file fails, once, while fail is set.
type failingCreateFS struct {
	*MemFS
	fail bool
}

func (f *failingCreateFS) Create(name string) (File, error) {
	if f.fail && strings.HasSuffix(name, ".hvc"+tmpSuffix) {
		f.fail = false
		return nil, errors.New("injected create failure")
	}
	return f.MemFS.Create(name)
}

// TestFailedSealKeepsItsRows: a seal that cannot create its temp file
// returns the error and keeps every row buffered, and the next seal
// writes the partition byte for byte as a seal with no failure does.
// The batches hold missing cells in both columns and repeat strings, so
// the frozen segment's re-append walks the missing masks and remaps a
// dictionary.
func TestFailedSealKeepsItsRows(t *testing.T) {
	ctx := context.Background()
	batch := func(rows ...table.Row) *table.Table {
		b := table.NewBuilder(testSchema, len(rows))
		for _, row := range rows {
			b.AppendRow(row)
		}
		return b.Freeze("batch")
	}
	missI, missS := table.MissingValue(table.KindInt), table.MissingValue(table.KindString)
	batches := []*table.Table{
		batch(table.Row{table.IntValue(1), table.StringValue("zz")}, table.Row{missI, missS},
			table.Row{table.IntValue(3), table.StringValue("aa")}),
		batch(table.Row{table.IntValue(4), table.StringValue("mm")}, table.Row{missI, table.StringValue("zz")},
			table.Row{table.IntValue(6), missS}),
	}
	sealOnce := func(fs FS, failFirst func()) []byte {
		d := mustDataset(t, fs, "root/ds", Config{SegmentRows: -1})
		for _, b := range batches {
			if err := d.Append(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
		if failFirst != nil {
			failFirst()
			if _, err := d.Seal(ctx); err == nil {
				t.Fatal("seal with a failing temp-file create succeeded")
			}
			if got := d.OpenRows(); got != 6 {
				t.Fatalf("after the failed seal OpenRows = %d, want 6", got)
			}
			if got := len(d.Partitions()); got != 0 {
				t.Fatalf("the failed seal left %d partitions", got)
			}
		}
		p, err := d.Seal(ctx)
		if err != nil || p == nil || p.Seq != 1 || p.Rows != 6 {
			t.Fatalf("seal = (%+v, %v), want seq 1 of 6 rows", p, err)
		}
		data, err := fs.ReadFile("root/ds/" + p.Name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := sealOnce(NewMemFS(), nil)
	ffs := &failingCreateFS{MemFS: NewMemFS()}
	if got := sealOnce(ffs, func() { ffs.fail = true }); !bytes.Equal(got, want) {
		t.Fatal("the seal after a failed one wrote a partition unlike an unfailed seal's")
	}
}

func TestAppendValidation(t *testing.T) {
	ctx := context.Background()
	d := mustDataset(t, NewMemFS(), "root/ds", Config{})
	narrow := table.NewBuilder(table.NewSchema(testSchema.Columns[0]), 1)
	narrow.AppendRow(table.Row{table.IntValue(1)})
	if err := d.Append(ctx, narrow.Freeze("narrow")); err == nil {
		t.Fatal("batch of another schema accepted")
	}
	filtered := testBatch(0, 4).Filter("filtered", func(row int) bool { return row%2 == 0 })
	if err := d.Append(ctx, filtered); err == nil {
		t.Fatal("batch with non-member rows accepted")
	}
	if got := d.OpenRows(); got != 0 {
		t.Fatalf("rejected batches buffered %d rows", got)
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
		if err := d.Append(ctx, testBatch(i*16, 16)); err != nil {
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
	if err := d.Append(ctx, testBatch(0, 6)); err != nil {
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
	if err := d.Append(ctx, testBatch(10, 3)); err != nil {
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
