package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/baseline/sparklike"
	"repro/internal/engine"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
)

// tinyParams keeps the experiment smoke tests fast.
func tinyParams() Params {
	return Params{
		BaseRows:          4000,
		Cols:              30,
		Workers:           2,
		PartsPerWorker:    2,
		WorkerParallelism: 2,
		Seed:              1,
	}
}

func TestOpsRunOnHillview(t *testing.T) {
	env, err := StartHV(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	view, err := env.LoadScale(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range Ops {
		if err := op.Hillview(context.Background(), view, nil); err != nil {
			t.Errorf("%s (hillview): %v", op.Name, err)
		}
	}
}

func TestOpsRunOnSpark(t *testing.T) {
	p := tinyParams()
	eng := sparklike.New(p.Workers * p.WorkerParallelism)
	parts := GenScale(p, 1)
	for _, op := range Ops {
		senv := NewSparkEnv(eng, parts)
		if err := op.Spark(senv); err != nil {
			t.Errorf("%s (spark): %v", op.Name, err)
		}
	}
	if eng.BytesCollected() == 0 {
		t.Error("spark ops shipped no bytes")
	}
}

func TestRunFig5Smoke(t *testing.T) {
	res, err := RunFig5(tinyParams(), []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 11 ops × (2 HV scales + 1 Spark) cells.
	if got := len(res.Cells); got != 33 {
		t.Fatalf("cells = %d", got)
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Errorf("%s/%s: %v", c.System, c.Op, c.Err)
		}
		if c.Elapsed <= 0 {
			t.Errorf("%s/%s: no elapsed time", c.System, c.Op)
		}
		if c.Bytes <= 0 {
			t.Errorf("%s/%s: no bytes", c.System, c.Op)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "O11") || !strings.Contains(out, "Spark1x") {
		t.Errorf("print output incomplete:\n%s", out)
	}
	// The headline architectural claim: Spark ships more bytes than
	// Hillview at the same scale for the summary-sized ops (O1).
	spark := findCell(res.Cells, "Spark1x", "O1")
	hv := findCell(res.Cells, "Hillview1x", "O1")
	if spark.Bytes <= hv.Bytes {
		t.Errorf("Spark bytes (%d) should exceed Hillview bytes (%d) for O1", spark.Bytes, hv.Bytes)
	}
}

func TestRunFig6Smoke(t *testing.T) {
	res, err := RunFig6(tinyParams(), []int{1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, op := range Ops {
		if op.ColdEligible {
			want++
		}
	}
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Errorf("%s/%s: %v", c.System, c.Op, c.Err)
		}
	}
	var buf bytes.Buffer
	res.PrintFig6(&buf)
	if !strings.Contains(buf.String(), "Hillview1xCold") {
		t.Errorf("fig6 output incomplete:\n%s", buf.String())
	}
}

func TestRunMicroSmoke(t *testing.T) {
	res, err := RunMicro(50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streaming <= 0 || res.Sampling <= 0 || res.DBMilli <= 0 {
		t.Fatalf("times = %+v", res)
	}
	// The paper's ordering: sampling < streaming < database.
	if res.DBMilli < res.Streaming {
		t.Errorf("database (%.2fms) should be slower than streaming (%.2fms)", res.DBMilli, res.Streaming)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "database system") {
		t.Error("micro print incomplete")
	}
}

func TestRunFig7Smoke(t *testing.T) {
	pts, err := RunFig7(20000, []int{1, 2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	var buf bytes.Buffer
	PrintScale(&buf, "fig7", "leaves", pts)
	if !strings.Contains(buf.String(), "streaming") {
		t.Error("scale print incomplete")
	}
}

func TestRunFig8Smoke(t *testing.T) {
	p := tinyParams()
	pts, err := RunFig8(p, 5000, 2, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestRunFig9(t *testing.T) {
	entries, err := RunFig9("../sketch")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 11 {
		t.Fatalf("entries = %d", len(entries))
	}
	for _, e := range entries {
		if e.LOC <= 0 {
			t.Errorf("%s: no lines counted", e.Vizketch)
		}
		// Same order of magnitude as the paper's per-vizketch effort.
		if e.LOC > 10*e.PaperLOC {
			t.Errorf("%s: %d lines vs paper %d — implementation bloated?", e.Vizketch, e.LOC, e.PaperLOC)
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, entries)
	if !strings.Contains(buf.String(), "Heavy hitters") {
		t.Error("fig9 print incomplete")
	}
}

func TestRunFig11Smoke(t *testing.T) {
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	sheet := spreadsheet.New(root)
	view, err := sheet.Load(context.Background(), "fl", "flights:rows=30000,parts=4,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunFig11(view)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("questions = %d", len(results))
	}
	for _, r := range results {
		if r.Actions == 0 {
			t.Errorf("%s: no actions recorded", r.Q)
		}
		if r.Answer == "" {
			t.Errorf("%s: no answer", r.Q)
		}
	}
	var buf bytes.Buffer
	PrintFig11(&buf, results)
	if !strings.Contains(buf.String(), "Q20") {
		t.Error("fig11 print incomplete")
	}
}

func TestOpByName(t *testing.T) {
	if _, err := OpByName("O5"); err != nil {
		t.Error(err)
	}
	if _, err := OpByName("O99"); err == nil {
		t.Error("unknown op should fail")
	}
}
