package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// clients is the number of closed-loop connections driving the server:
// the host's nproc. More clients than cores would measure the load
// generator's scheduling, not the server.
const clients = 2

// sizing fixes the input sizes and the length of a run. The op list is a
// function of the seed alone; sizing scales the data under it and says
// how much of the list is sent.
type sizing struct {
	rows        int // flights rows, split over parts files
	parts       int
	batchRows   int // rows per ingest append
	segmentRows int // -segment-rows
	initBatches int // batches appended and sealed during set-up
	appendHz    int // ingest_query writer schedule, batches per second
	probeReps   int // repetitions behind each direct-probe median
	measured    map[string]sectionLen
}

// sectionLen is the length of a workload's measured section. It is a
// count, never a time, so both sides of an A/B send the same requests
// whatever their speed; the run reports how long the count took.
type sectionLen struct {
	solo    int // cycles with one client: the latency part
	duo     int // cycles with one client per core: the throughput part
	batches int // ingest_query: appends of the paced writer; the reader loops beside it until the last one
}

// runSeconds is BENCHMARK.json's run_seconds: about how long the full
// counts below take on the 2-vCPU host they were chosen on (two thirds
// with one client, one third with two). The driver's 92 runs must fit
// 3420 s, set-up included, which is what keeps the counts this small.
const runSeconds = 24

var (
	fullSizing = sizing{rows: 1_000_000, parts: 8, batchRows: 4000, segmentRows: 100_000, initBatches: 25, appendHz: 25, probeReps: 5,
		measured: map[string]sectionLen{
			"scan_inproc":   {solo: 36, duo: 22},
			"scan_cluster":  {solo: 36, duo: 22},
			"pool_pressure": {solo: 36, duo: 22},
			"ingest_query":  {batches: runSeconds * 25},
		}}
	// Four cycles and two: the traced run alternates traced and untraced
	// cycles over half the solo count, and needs one of each.
	smokeSizing = sizing{rows: 100_000, parts: 8, batchRows: 400, segmentRows: 4000, initBatches: 10, appendHz: 25, probeReps: 2,
		measured: map[string]sectionLen{
			"scan_inproc":   {solo: 4, duo: 2},
			"scan_cluster":  {solo: 4, duo: 2},
			"pool_pressure": {solo: 4, duo: 2},
			"ingest_query":  {batches: 40},
		}}
)

// full reports whether these are the sizes the ledger is read at; the
// smoke sizes are too small for a p95 or a 90% layer coverage.
func (s sizing) full() bool { return s.rows >= fullSizing.rows }

// env is the build and scratch environment of one harness invocation.
// Everything it writes lives under work (default <root>/.bench_build).
type env struct {
	root   string // repository checkout
	work   string // build outputs, generated data, per-run scratch
	runDir string // unique per invocation, removed on exit
	size   sizing
	seed   uint64

	buildS      float64
	datagenS    float64
	procs       procSet
	deployments int // deployments started so far; numbers their logs and dirs
}

func newEnv(root, work string, seed uint64, size sizing) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "hillview", "main.go")); err != nil {
		return nil, fmt.Errorf("%s is not a hillview checkout: %w", root, err)
	}
	if work == "" {
		work = filepath.Join(root, ".bench_build")
	}
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	for _, d := range []string{"bin", "data", "out"} {
		if err := os.MkdirAll(filepath.Join(work, d), 0o755); err != nil {
			return nil, err
		}
	}
	runDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, work: work, runDir: runDir, size: size, seed: seed}, nil
}

// close stops every child and removes the per-run scratch.
func (e *env) close() {
	e.procs.killAll()
	os.RemoveAll(e.runDir)
}

func (e *env) bin(name string) string { return filepath.Join(e.work, "bin", name) }

// build compiles the three programs from the tree. The Go build cache
// makes a rebuild of an unchanged tree a sub-second no-op.
func (e *env) build() error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", filepath.Join(e.work, "bin")+string(filepath.Separator),
		"./cmd/hillview", "./cmd/hillview-worker", "./cmd/hillview-gen")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return nil
}

// dataDir returns the flights dataset for this seed, generating it with
// the real hillview-gen when the cache under <work>/data misses. The key
// names everything the bytes depend on.
func (e *env) dataDir() (string, error) {
	key := fmt.Sprintf("flights-r%d-p%d-s%d-hvc2", e.size.rows, e.size.parts, e.seed)
	dir := filepath.Join(e.work, "data", key)
	marker := filepath.Join(dir, "complete")
	if _, err := os.Stat(marker); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	all := filepath.Join(dir, "all")
	start := time.Now()
	cmd := exec.Command(e.bin("hillview-gen"), "-rows", fmt.Sprint(e.size.rows), "-parts", fmt.Sprint(e.size.parts),
		"-seed", fmt.Sprint(e.seed), "-format", "hvc2", "-out", all)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("hillview-gen: %v\n%s", err, out)
	}
	e.datagenS = time.Since(start).Seconds()
	// Two shards for the cluster workload: the same files, first half
	// and second half, so both topologies scan identical bytes.
	files, err := filepath.Glob(filepath.Join(all, "*.hvc"))
	if err != nil || len(files) != e.size.parts {
		return "", fmt.Errorf("hillview-gen wrote %d files, want %d (%v)", len(files), e.size.parts, err)
	}
	for i, f := range files {
		shard := filepath.Join(dir, fmt.Sprintf("shard-%d", i*clusterWorkers/len(files)))
		if err := os.MkdirAll(shard, 0o755); err != nil {
			return "", err
		}
		if err := linkOrCopy(f, filepath.Join(shard, filepath.Base(f))); err != nil {
			return "", err
		}
	}
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// header prints what a reader needs to repeat the run.
func (e *env) header(w io.Writer, workload string, traced bool) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# hillview benchmark: workload=%s seed=%d traced=%v clients=%d rows=%d measured=%+v\n",
		workload, e.seed, traced, clients, e.size.rows, e.size.measured[workload])
	fmt.Fprintf(w, "# host: nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(w, "# sandbox: files stay in the OS page cache, so colstore misses cost page faults + CRC32-C + materialize, not device reads; loopback TCP; %d vCPUs\n",
		runtime.NumCPU())
}
