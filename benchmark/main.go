// Command benchmark is the repository's end-to-end and per-layer
// yardstick. It builds hillview, hillview-worker and hillview-gen from
// the tree, generates its inputs from the seed with the real generator,
// starts the real processes with production defaults, drives them over
// HTTP with two closed-loop clients, validates every response, and
// prints every metric as "workload metric value unit". See README.md.
//
//	bash benchmark/run.sh -workload <name|all> -seed <n> [-trace 0|1] [-smoke] [-out <file>]
//	bash benchmark/run.sh compare <a.json> <b.json>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	name := flag.String("workload", "all", "workload to run: scan_inproc, scan_cluster, pool_pressure, ingest_query, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated data and the op list")
	// The driver's calling convention passes BENCHMARK.json's run_seconds.
	// It is not a knob: the run length is the fixed op counts of sizing,
	// so that two runs always send the same requests.
	flag.Float64("seconds", runSeconds, "accepted and ignored: the run length is a fixed op count that takes about this long")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes, for the smoke test")
	root := flag.String("root", ".", "repository checkout to build and measure")
	work := flag.String("work", "", "directory for build outputs, generated data and scratch (default <root>/.bench_build)")
	out := flag.String("out", "", "also write the results of every workload run to this JSON file (input of compare)")
	flag.Parse()

	if runtime.NumCPU() < clients {
		fmt.Fprintf(os.Stderr, "benchmark: %d clients need %d CPUs, this host has %d; more clients than cores measures the load generator\n",
			clients, clients, runtime.NumCPU())
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	size := fullSizing
	if *smoke {
		size = smokeSizing
	}
	e, err := newEnv(*root, *work, *seed, size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	// Children die with the run: on return, on a signal, and (Pdeathsig)
	// when the harness itself is killed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()
	defer e.close()

	if err := e.build(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var results []*result
	for _, w := range todo {
		res, err := e.runWorkload(w, *trace == 1, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, res)
	}
	if *out != "" {
		b, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}

// runWorkload runs one workload and prints its metrics, ending with the
// one-line JSON summary.
func (e *env) runWorkload(w *workload, traced bool, out io.Writer) (*result, error) {
	e.header(out, w.name, traced)
	dataDir := ""
	if !w.ingest {
		var err error
		if dataDir, err = e.dataDir(); err != nil {
			return nil, err
		}
	}
	// printed is every metric the run measured; the JSON line carries
	// exactly the ones BENCHMARK.json lists for this kind of run.
	var (
		res     *result
		err     error
		printed = timedDefs(w)
		listed  = endToEnd
	)
	if traced {
		printed, listed = perLayer, perLayer
		res, err = e.runTraced(w, dataDir, out)
	} else {
		res, err = e.runTimed(w, dataDir, out)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics.print(out, w.name, printed)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, d := range listed {
		metrics[d.Name] = valueUnit{res.Metrics[d.Name].Value, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}
