package flights

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

func TestGenBasics(t *testing.T) {
	tbl := Gen("f", 10000, 1, PaperColumns)
	if tbl.NumRows() != 10000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if got := tbl.Schema().NumColumns(); got != PaperColumns {
		t.Fatalf("columns = %d, want %d", got, PaperColumns)
	}
	// Every pad name reads one stored column: 8 B a row in all.
	pad := tbl.MustColumn("Pad042")
	if _, ok := pad.(*table.IntColumn); !ok || pad.Value(5).Missing || pad != tbl.MustColumn("Pad000") {
		t.Errorf("pad column %T is not one shared stored int column", pad)
	}
	// Carrier skew: WN (rank 1 in the Zipf) must dominate.
	counts := map[string]int{}
	carrier := tbl.MustColumn("Carrier")
	tbl.Members().Iterate(func(i int) bool {
		counts[carrier.Value(i).String()]++
		return true
	})
	if counts["WN"] <= counts["HA"] {
		t.Errorf("Zipf skew missing: WN=%d HA=%d", counts["WN"], counts["HA"])
	}
	// Cancelled flights have missing DepTime and a cancellation code.
	cancelled := tbl.MustColumn("Cancelled")
	depTime := tbl.MustColumn("DepTime")
	code := tbl.MustColumn("CancellationCode")
	sawCancelled := false
	tbl.Members().Iterate(func(i int) bool {
		if cancelled.Value(i).I == 1 {
			sawCancelled = true
			if !depTime.Value(i).Missing || code.Value(i).Missing {
				t.Errorf("row %d: cancelled flight with DepTime/no code", i)
				return false
			}
		} else if !code.Value(i).Missing {
			t.Errorf("row %d: non-cancelled flight with code", i)
			return false
		}
		return true
	})
	if !sawCancelled {
		t.Error("no cancelled flights in 10k rows (expected ~1.8%)")
	}
}

func TestGenDeterminism(t *testing.T) {
	a := Gen("d", 1000, 7, CoreColumns)
	b := Gen("d", 1000, 7, CoreColumns)
	ra, rb := a.Rows(), b.Rows()
	for i := range ra {
		if !ra[i].Equal(rb[i]) {
			t.Fatalf("row %d differs between identical generations", i)
		}
	}
	c := Gen("d", 1000, 8, CoreColumns)
	diff := false
	for i, r := range c.Rows() {
		if !r.Equal(ra[i]) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestGenPartitions(t *testing.T) {
	parts := GenPartitions("gp", 1003, 4, 3, CoreColumns)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.NumRows()
	}
	if total != 1003 {
		t.Errorf("total = %d", total)
	}
	if parts[0].ID() == parts[1].ID() {
		t.Error("partition IDs must differ")
	}
}

func TestFlightsSourceScheme(t *testing.T) {
	Register()
	cfg := engine.Config{AggregationWindow: -1}
	ds, err := storage.NewLoader(cfg, 0, nil)("fs", "flights:rows=5000,parts=2,cols=25,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLeaves() != 2 {
		t.Fatalf("parts = %d", ds.NumLeaves())
	}
	meta, err := ds.Sketch(context.Background(), &sketch.MetaSketch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := meta.(*sketch.TableMeta).Schema.NumColumns(); n != 25 {
		t.Errorf("cols = %d", n)
	}
	// Default parts from microRows.
	ds, err = storage.NewLoader(cfg, 300, nil)("fs2", "flights:rows=1000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumLeaves() != 4 {
		t.Errorf("auto parts = %d, want 4", ds.NumLeaves())
	}
	// Bad specs.
	for _, bad := range []string{"flights:bogus", "flights:rows=x", "flights:zz=1"} {
		if _, err := storage.NewLoader(cfg, 0, nil)("x", bad); err == nil {
			t.Errorf("source %q should fail", bad)
		}
	}
}

// TestEndToEndFlightsQuery runs a full stack smoke test: redo-logged
// load through the root, histogram over a filtered view, replay after a
// simulated restart.
func TestEndToEndFlightsQuery(t *testing.T) {
	Register()
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	if _, err := root.Load("fl", "flights:rows=20000,parts=4,seed=5"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Filter("fl", "ua", `Carrier == "UA"`); err != nil {
		t.Fatal(err)
	}
	rangeRes, err := root.RunSketch(context.Background(), "ua", &sketch.RangeSketch{Col: "DepDelay"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rangeRes.(*sketch.DataRange)
	if r.Present == 0 {
		t.Fatal("no UA flights with delays")
	}
	hist, err := root.RunSketch(context.Background(), "ua", &sketch.HistogramSketch{
		Col:     "DepDelay",
		Buckets: sketch.NumericBuckets(table.KindDouble, r.Min, r.Max, 30),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := hist.(*sketch.Histogram)
	if h.TotalCount() != r.Present {
		t.Errorf("histogram holds %d values, range saw %d", h.TotalCount(), r.Present)
	}
	// Crash and replay: identical histogram.
	root.DropAll()
	if _, err := root.Get("ua"); err != nil {
		t.Fatal(err)
	}
	hist2, err := root.RunSketch(context.Background(), "ua", &sketch.HistogramSketch{
		Col:     "DepDelay",
		Buckets: sketch.NumericBuckets(table.KindDouble, r.Min, r.Max, 30),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2 := hist2.(*sketch.Histogram)
	for i := range h.Counts {
		if h.Counts[i] != h2.Counts[i] {
			t.Fatalf("replayed histogram differs at bucket %d", i)
		}
	}
}
