package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at smoke sizes
// against real processes built from the tree, and holds the output to
// the contract: every metric of BENCHMARK.json present under its unit,
// sample counts and values non-zero where a population exists, no
// failed op, no wire traffic without workers, a layer table per run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real hillview processes")
	}
	e, err := newEnv("..", t.TempDir(), 1, smokeSizing)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := e.runWorkload(w, traced, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			printed, listed := timedDefs(w), endToEnd
			if traced {
				printed, listed = perLayer, perLayer
			}
			checkOutput(t, w, traced, printed, listed, out.String())
		}
	}
}

// checkOutput holds the metric lines to printed and the JSON summary to
// listed, the metrics BENCHMARK.json names for this kind of run.
func checkOutput(t *testing.T, w *workload, traced bool, printed, listed []metricDef, out string) {
	t.Helper()
	type line struct {
		value float64
		unit  string
		n     int
	}
	metrics := map[string]line{}
	layerRows := map[string]bool{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) >= 6 && f[0] == "#" && f[1] == "layers" && f[3] == "traced" && f[4] == "all" {
			layerRows[f[5]] = true
		}
		if len(f) < 4 || f[0] != w.name {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Errorf("%s: metric line %q: %v", w.name, last, err)
		}
		l := line{value: v, unit: f[3]}
		if len(f) > 4 {
			l.n, _ = strconv.Atoi(strings.TrimPrefix(f[4], "n="))
		}
		metrics[f[1]] = l
	}
	for _, d := range printed {
		m, ok := metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing from the output", w.name, d.Name)
		case m.unit != d.Unit:
			t.Errorf("%s: metric %s printed in %q, BENCHMARK.json says %q", w.name, d.Name, m.unit, d.Unit)
		case !traced && (m.value <= 0 || (strings.HasSuffix(d.Name, "_ms") && m.n == 0)):
			t.Errorf("%s: end-to-end metric %s = %v (n=%d); it must never be zero", w.name, d.Name, m.value, m.n)
		}
	}
	if len(metrics) != len(printed) {
		t.Errorf("%s: %d metric lines, want %d", w.name, len(metrics), len(printed))
	}
	// The last line is the machine-readable summary.
	var sum struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    int   `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil || sum.Correct == nil || len(sum.Metrics) != len(listed) {
		t.Errorf("%s: last line is not the JSON summary of %d metrics: %v\n%s", w.name, len(listed), err, last)
	}
	for _, d := range listed {
		if got, ok := sum.Metrics[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("%s: JSON summary has %s = %+v (present=%v), want unit %q", w.name, d.Name, got, ok, d.Unit)
		}
	}
	if !traced {
		return
	}
	if metrics["error_rate"].value != 0 {
		t.Errorf("%s: error_rate %v", w.name, metrics["error_rate"].value)
	}
	for name, m := range metrics {
		onWire := strings.HasPrefix(name, "wire.") && strings.HasSuffix(name, "_per_op") || strings.HasPrefix(name, "cluster.")
		if onWire && !w.cluster && m.value != 0 {
			t.Errorf("%s: %s = %v without workers", w.name, name, m.value)
		}
		if strings.HasPrefix(name, "wire.") && w.cluster && m.value == 0 {
			t.Errorf("%s: %s = 0 under a cluster", w.name, name)
		}
		if strings.HasPrefix(name, "sketch.") && m.value <= 0 {
			t.Errorf("%s: probe %s = %v", w.name, name, m.value)
		}
	}
	for _, layer := range []string{"http", "serve", "engine", "unattributed"} {
		if !layerRows[layer] {
			t.Errorf("%s: traced layer table has no %s row", w.name, layer)
		}
	}
	if w.cluster && !layerRows["cluster"] {
		t.Errorf("%s: traced layer table has no cluster row", w.name)
	}
	if w.ingest && metrics["ingest.seals"].value == 0 {
		t.Errorf("%s: no seal during the run", w.name)
	}
}
