package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareMain implements "benchmark compare <a.json> <b.json>": for each
// workload present in both result files it prints every metric of the
// untraced run's relative difference (b against a, positive = worse) beside
// its bound, checks that answers recorded for the same request agree —
// within a file across workloads (scan_inproc vs scan_cluster) and
// between the files — and returns non-zero on a breach.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <a.json> <b.json>")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	breaches := 0
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, ra := range a {
		rb := findResult(b, ra.Workload)
		if rb == nil || ra.Traced || rb.Traced {
			continue
		}
		if !ra.Correct || !rb.Correct || ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s error_rate: a %d/%d failed (correct=%v), b %d/%d failed (correct=%v)  BREACH\n",
				ra.Workload, ra.Failed, ra.Attempted, ra.Correct, rb.Failed, rb.Attempted, rb.Correct)
			breaches++
		}
		wl := findWorkload(ra.Workload)
		if wl == nil {
			fmt.Fprintf(w, "%-14s is not a workload of this benchmark  BREACH\n", ra.Workload)
			breaches++
			continue
		}
		for _, d := range timedDefs(wl) {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := worsening(d, va, vb)
			mark := ""
			if worse > d.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", ra.Workload, d.Name, va, vb, 100*worse, 100*d.Bound, mark)
		}
	}
	breaches += compareAnswers(w, append(append([]*result{}, a...), b...))
	if breaches > 0 {
		fmt.Fprintf(w, "%d breach(es)\n", breaches)
		return 1
	}
	fmt.Fprintln(w, "all end-to-end metrics within their bounds; all shared answers equal")
	return 0
}

// worsening is how much worse b is than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compareAnswers checks that every request whose answer was recorded by
// more than one run of the same seed (exact histograms on the root view,
// filter row counts) got the same answer in each.
func compareAnswers(w io.Writer, runs []*result) int {
	type seen struct{ digest, workload string }
	breaches, compared := 0, 0
	first := map[string]seen{}
	for _, r := range runs {
		for req, dg := range r.Answers {
			key := fmt.Sprintf("seed %d %s", r.Seed, req)
			if prev, ok := first[key]; !ok {
				first[key] = seen{dg, r.Workload}
			} else {
				compared++
				if prev.digest != dg {
					fmt.Fprintf(w, "answer differs: %s: %s gave %s, %s gave %s  BREACH\n", key, prev.workload, prev.digest, r.Workload, dg)
					breaches++
				}
			}
		}
	}
	fmt.Fprintf(w, "%d answers compared across runs and topologies\n", compared)
	return breaches
}

func readResults(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func findResult(rs []*result, workload string) *result {
	for _, r := range rs {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}
