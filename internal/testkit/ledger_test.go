package testkit

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

// The answer ledger is the repo's bit-identity promise as a checked-in
// file: one line per (seed, table shape, harness instance) holding a
// digest of the sketch's wire bytes and of its engine result's wire
// bytes, plus one line per map op. "Same answers" means this file is
// unchanged; a change that moves bits on purpose re-records it with
//
//	go test ./internal/testkit -run TestAnswerLedger -update
//
// and names the lines that moved.

var updateLedger = flag.Bool("update", false, "rewrite testdata/answers.golden from this tree")

const ledgerPath = "testdata/answers.golden"

// ledgerShapes are the generated tables the ledger records: many small
// partitions, and a few large ones.
var ledgerShapes = []struct{ rows, parts int }{{500, 8}, {20000, 5}}

// A ledger line is tab-separated: key, fold class, sketch digest, result
// digest, name. Lines of fold class "float" hold results whose float
// folds a compiler may fuse into FMAs off the recorded GOARCH.
const (
	foldExact = "exact"
	foldFloat = "float"
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// foldClass reports whether sk's result carries float sums.
func foldClass(sk sketch.Sketch) string {
	members, _ := sketch.MembersOf(sk)
	for _, m := range members {
		if _, ok := m.(*sketch.MomentsSketch); ok {
			return foldFloat
		}
	}
	return foldExact
}

// ledgerResult runs sk over ds at pool widths 1 and 3, demands equal
// wire bytes, and returns them.
func ledgerResult(parts []*table.Table, sk sketch.Sketch, op engine.MapOp) ([]byte, error) {
	var want []byte
	for _, par := range []int{1, 3} {
		var ds engine.IDataSet = engine.NewLocal(datasetID, parts, engine.Config{Parallelism: par, AggregationWindow: -1})
		if op != nil {
			var err error
			if ds, err = ds.Map(op, datasetID+"-mapped"); err != nil {
				return nil, err
			}
		}
		res, err := ds.Sketch(context.Background(), sk, nil)
		if err != nil {
			return nil, fmt.Errorf("parallelism %d: %w", par, err)
		}
		b, ok := sketch.AppendResultWire(nil, res)
		if !ok {
			return nil, fmt.Errorf("result %T has no wire codec", res)
		}
		if want != nil && !bytes.Equal(b, want) {
			return nil, fmt.Errorf("parallelism %d encodes differently from parallelism 1", par)
		}
		want = b
	}
	return want, nil
}

// ledgerOps are the map ops the ledger records, each with the sketch
// run over its output.
func ledgerOps(info table.GenInfo) []struct {
	op engine.MapOp
	sk sketch.Sketch
} {
	mid := (info.DoubleLo + info.DoubleHi) / 2
	return []struct {
		op engine.MapOp
		sk sketch.Sketch
	}{
		{engine.FilterOp{Predicate: fmt.Sprintf("gd < %g", mid)}, &sketch.MisraGriesSketch{Col: "gs", K: 8}},
		{engine.DeriveOp{Col: "gd2", Expr: "gd * 2"}, &sketch.RangeSketch{Col: "gd2"}},
		{engine.FilterRangeOp{Col: "gd", Min: info.DoubleLo, Max: mid}, &sketch.RangeSketch{Col: "gi"}},
	}
}

// answerLedger computes the ledger lines of this tree.
func answerLedger() ([]string, error) {
	var lines []string
	add := func(key, class string, skBytes, resBytes []byte, name string) {
		lines = append(lines, strings.Join([]string{key, class, digest(skBytes), digest(resBytes), name}, "\t"))
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, shape := range ledgerShapes {
			parts, info := table.GenPartitions(fmt.Sprintf("ledger%d", seed), seed, shape.rows, shape.parts)
			for i, sk := range Instances(seed, info) {
				key := fmt.Sprintf("seed=%d/%dx%d/%02d", seed, shape.rows, shape.parts, i)
				skBytes, ok := sketch.AppendSketchWire(nil, sk)
				if !ok {
					return nil, fmt.Errorf("%s: %s has no wire codec", key, sk.Name())
				}
				res, err := ledgerResult(parts, sk, nil)
				if err != nil {
					return nil, fmt.Errorf("%s: %s: %w", key, sk.Name(), err)
				}
				add(key, foldClass(sk), skBytes, res, sk.Name())
			}
		}
	}
	parts, info := table.GenPartitions("ledgerops", 1, ledgerShapes[0].rows, ledgerShapes[0].parts)
	for i, o := range ledgerOps(info) {
		key := fmt.Sprintf("op/%02d", i)
		opBytes, ok := engine.AppendOpWire(nil, o.op)
		if !ok {
			return nil, fmt.Errorf("%s: %T has no wire codec", key, o.op)
		}
		res, err := ledgerResult(parts, o.sk, o.op)
		if err != nil {
			return nil, fmt.Errorf("%s: %T: %w", key, o.op, err)
		}
		add(key, foldClass(o.sk), opBytes, res, fmt.Sprintf("%T%+v | %s", o.op, o.op, o.sk.Name()))
	}
	return lines, nil
}

// ledgerHeader heads the file; the GOARCH line is parsed back.
func ledgerHeader() []string {
	return []string{
		"# Answer ledger: go test ./internal/testkit -run TestAnswerLedger [-update]",
		"# key\tfold\tsketch-or-op digest\tresult digest\tname",
		"# GOARCH " + runtime.GOARCH,
	}
}

// TestAnswerLedger recomputes the ledger and diffs it against the
// checked-in file, naming every line that changed.
func TestAnswerLedger(t *testing.T) {
	got, err := answerLedger()
	if err != nil {
		t.Fatal(err)
	}
	if *updateLedger {
		out := strings.Join(append(ledgerHeader(), got...), "\n") + "\n"
		if err := os.WriteFile(ledgerPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), ledgerPath)
		return
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	arch := ""
	want := map[string]string{}
	var order []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if a, ok := strings.CutPrefix(line, "# GOARCH "); ok {
			arch = a
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		key, _, _ := strings.Cut(line, "\t")
		want[key] = line
		order = append(order, key)
	}
	skipFloat := arch != runtime.GOARCH
	if skipFloat {
		t.Logf("ledger recorded on %s, running on %s: float-fold lines are not compared", arch, runtime.GOARCH)
	}
	var diffs []string
	seen := map[string]bool{}
	for _, line := range got {
		key, _, _ := strings.Cut(line, "\t")
		seen[key] = true
		w, ok := want[key]
		switch {
		case !ok:
			diffs = append(diffs, "+ "+line)
		case w == line:
		case skipFloat && strings.Split(line, "\t")[1] == foldFloat && strings.Split(w, "\t")[1] == foldFloat:
		default:
			diffs = append(diffs, "- "+w, "+ "+line)
		}
	}
	for _, key := range order {
		if !seen[key] {
			diffs = append(diffs, "- "+want[key])
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("%d ledger lines differ from %s (re-record with -update only if the change is meant to move bits):\n%s",
			len(diffs), ledgerPath, strings.Join(diffs, "\n"))
	}
}
