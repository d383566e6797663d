package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
)

const clusterWorkers = 2

// workload is one named traffic mix plus the deployment it runs on.
// Only the flags named here are passed; everything else is the
// programs' production default.
type workload struct {
	name string
	why  string

	cluster      bool    // root + clusterWorkers hillview-worker -parallelism 1
	poolFraction float64 // -pool-budget as a share of the dataset's bytes; 0 = flag unset
	ingest       bool    // -ingest-dir, -segment-rows; a paced writer runs beside the reader
	view         string  // the root view the op list reads
	cycle        func(g *opGen, i int) []op
}

var workloads = []workload{
	{
		name: "scan_inproc", view: "fl", cycle: scanCycle,
		why: "hillview alone, pool unlimited: every non-cached op is a leaf scan on warm columns, so sketch kernels, engine scheduling and table do the work; cached ops pay only the fixed per-query cost",
	},
	{
		name: "scan_cluster", view: "fl", cycle: scanCycle, cluster: true,
		why: "same op list and files under a root + 2 workers: adds cluster dispatch, wire encode/decode, delta partials and root-side merge; the gap to scan_inproc is the price of distribution",
	},
	{
		name: "pool_pressure", view: "fl", cycle: pressureCycle, poolFraction: 0.25,
		why: "pool budget is 25% of the data and ops rotate over every column, so colstore/storage miss, page in, CRC, materialize and evict on most scans (page cache holds the files: no device cost)",
	},
	{
		name: "ingest_query", view: "ev", cycle: ingestCycle, ingest: true,
		why: "reads run beside a paced writer: every seal bumps the generation and invalidates cached results, so caching or deferred-write optimisations show their cost on the other side",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Columns of the generated flights table the op lists rotate over.
var (
	scanNumeric = []string{"DepDelay", "ArrDelay", "Distance", "AirTime"}
	scanStrings = []string{"Origin", "Dest", "Carrier", "OriginState"}
	heatPairs   = [][2]string{{"DepDelay", "ArrDelay"}, {"Distance", "AirTime"}, {"DepDelay", "Distance"}, {"TaxiOut", "ArrDelay"}}
	allNumeric  = []string{"Year", "Month", "DayOfMonth", "DayOfWeek", "FlightNum", "CRSDepTime", "DepTime",
		"DepDelay", "ArrDelay", "TaxiOut", "AirTime", "Distance", "Cancelled"}
	allStrings = []string{"Carrier", "Origin", "OriginState", "Dest", "DestState", "CancellationCode"}
	// Sort specs O1-O3 of the paper's Fig. 4: one numeric column, five
	// numeric columns, one string column.
	tableSpecs = []struct{ order, extra string }{
		{"+DepDelay", "Carrier,Origin"},
		{"+DepDelay,+ArrDelay,-Distance,+CRSDepTime,+FlightNum", ""},
		{"+Origin", "Dest,Carrier"},
	}
	evNumeric = []string{"lat", "lon"}
)

// newestView stands for the most recently derived view in an op's path;
// it is resolved when the op is sent, because which filter finished last
// depends on the two clients' interleaving.
const newestView = "{newest}"

// opGen builds a workload's op list. Cycle i is a pure function of
// (seed, i): both sides of any later A/B send the same requests.
type opGen struct {
	w    *workload
	seed uint64
	size sizing

	standingID string // ingest: the standing query registered during set-up
}

func (g *opGen) rng(i int) *rand.Rand {
	// SplitMix64 of (seed, cycle) so neighbouring seeds and cycles draw
	// unrelated streams.
	z := g.seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

func (g *opGen) cycle(i int) []op {
	ops := g.w.cycle(g, i)
	g.rng(i).Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

// exactHist is a histogram with a (column, bars) pair that never
// repeats within a run, so it is a computation-cache miss and scans.
func exactHist(view, col string, bars int) op {
	return op{class: classHist, view: view, exact: true, streaming: true, rememberAs: true,
		path: query("/api/histogram", "view", view, "col", col, "exact", "1", "bars", strconv.Itoa(bars))}
}

// sampledHist uses a fresh sampling seed per query (and, with cdf, a
// second concurrent sketch), so it is never cached.
func sampledHist(view, col string, cdf bool) op {
	kv := []string{"view", view, "col", col}
	if cdf {
		kv = append(kv, "cdf", "1")
	}
	return op{class: classHist, view: view, streaming: true, path: query("/api/histogram", kv...)}
}

func heatmap(view, x, y string) op {
	return op{class: classHeatmap, view: view, path: query("/api/heatmap", "view", view, "x", x, "y", y)}
}

func heavyHitters(view, col string, k int, sampled bool) op {
	kv := []string{"view", view, "col", col, "k", strconv.Itoa(k)}
	if sampled {
		kv = append(kv, "sampled", "1")
	}
	return op{class: classHH, view: view, path: query("/api/heavyhitters", kv...)}
}

func filter(view, name, expr string) op {
	return op{class: classFilter, view: view, name: name, expr: expr,
		path: query("/api/filter", "view", view, "name", name, "expr", expr)}
}

func tablePage(view, order, extra string) op {
	kv := []string{"view", view, "order", order, "k", "20"}
	if extra != "" {
		kv = append(kv, "extra", extra)
	}
	return op{class: classTable, view: view, order: order, path: query("/api/table", kv...)}
}

// cachedOp repeats the sending client's last completed exact histogram.
var cachedOp = op{class: classCached}

// scanCycle is the 18-op mix of scan_inproc and scan_cluster: 6 hist
// (3 exact, 2 sampled+cdf, 1 string), 3 cached, 3 heatmap, 3 heavy
// hitters, 2 filter, 1 table.
func scanCycle(g *opGen, i int) []op {
	r := g.rng(i)
	v := g.w.view
	var ops []op
	for j := 0; j < 3; j++ {
		m := 3*i + j
		view := v
		if j == 2 {
			view = newestView
		}
		ops = append(ops, exactHist(view, scanNumeric[m%4], 20+m/4))
	}
	for j := 0; j < 2; j++ {
		ops = append(ops, sampledHist(v, scanNumeric[(2*i+j)%4], true))
	}
	ops = append(ops, sampledHist(v, scanStrings[i%4], false))
	ops = append(ops, cachedOp, cachedOp, cachedOp)
	for j := 0; j < 3; j++ {
		p := heatPairs[(3*i+j)%len(heatPairs)]
		ops = append(ops, heatmap(v, p[0], p[1]))
	}
	// Exact heavy hitters stay on the two airport columns (340 values
	// each): they cost the same, so the class has one mode and a median
	// that means something.
	for j := 0; j < 2; j++ {
		m := 2*i + j
		ops = append(ops, heavyHitters(v, scanStrings[m%2], 10+m/2, false))
	}
	ops = append(ops, heavyHitters(v, scanStrings[i%4], 10, true))
	ops = append(ops,
		filter(v, fmt.Sprintf("f%d_0", i), fmt.Sprintf("Distance > %d", 600+r.Intn(20))),
		filter(v, fmt.Sprintf("f%d_1", i), fmt.Sprintf("DepDelay > %d", 10+r.Intn(5))))
	t := tableSpecs[i%len(tableSpecs)]
	ops = append(ops, tablePage(v, t.order, t.extra))
	return ops
}

// pressureCycle rotates exact histograms over every non-date column and
// heatmaps over seeded pairs, so the working set is the whole dataset —
// four times the pool. The single cached, heavy-hitters, filter, table
// and sampled ops keep every end-to-end metric measurable here too.
func pressureCycle(g *opGen, i int) []op {
	r := g.rng(i)
	v := g.w.view
	var ops []op
	for j := 0; j < 10; j++ {
		m := 10*i + j
		ops = append(ops, exactHist(v, allNumeric[m%len(allNumeric)], 20+m/len(allNumeric)))
	}
	for j := 0; j < 2; j++ {
		ops = append(ops, sampledHist(v, allStrings[(2*i+j)%len(allStrings)], false))
	}
	ops = append(ops, sampledHist(v, allNumeric[i%len(allNumeric)], true))
	for j := 0; j < 3; j++ {
		x := r.Intn(len(allNumeric))
		y := (x + 1 + r.Intn(len(allNumeric)-1)) % len(allNumeric)
		ops = append(ops, heatmap(v, allNumeric[x], allNumeric[y]))
	}
	ops = append(ops, cachedOp,
		heavyHitters(v, allStrings[i%len(allStrings)], 10+i/len(allStrings), false),
		filter(v, fmt.Sprintf("f%d", i), fmt.Sprintf("Distance > %d", 600+r.Intn(20))))
	t := tableSpecs[i%len(tableSpecs)]
	ops = append(ops, tablePage(v, t.order, t.extra))
	return ops
}

// ingestCycle is the reader's 16-op mix over the growing dataset ev:
// 8 hist (6 exact, 2 sampled+cdf), 3 cached, and one each of heavy
// hitters, standing get, heatmap, filter, table.
func ingestCycle(g *opGen, i int) []op {
	r := g.rng(i)
	v := g.w.view
	var ops []op
	for j := 0; j < 6; j++ {
		m := 6*i + j
		ops = append(ops, exactHist(v, evNumeric[m%2], 20+m/2))
	}
	ops = append(ops, sampledHist(v, "lat", true), sampledHist(v, "lon", true))
	ops = append(ops, cachedOp, cachedOp, cachedOp)
	ops = append(ops,
		heavyHitters(v, "msg", 10+i, false),
		op{class: classStanding, view: v, path: query("/api/standing", "op", "get", "name", v, "id", g.standingID)},
		heatmap(v, "lat", "lon"),
		filter(v, fmt.Sprintf("f%d", i), fmt.Sprintf("lat > %d", -10+r.Intn(5))))
	t := []struct{ order, extra string }{{"+lat", "msg"}, {"-lon,+lat", ""}, {"+msg", "lat"}}[i%3]
	ops = append(ops, tablePage(v, t.order, t.extra))
	return ops
}

// Ingest dataset ev.
const evSchema = "ts:date,lat:double,lon:double,msg:string"

// appendPool is how many distinct append bodies the writer cycles
// through: enough that consecutive segments differ, few enough that
// rendering them is set-up work, not load-generator CPU beside the run.
const appendPool = 16

// appendBodies renders the writer's seeded batches as JSON bodies of
// POST /api/ingest?op=append. msg is Zipf-distributed so heavy hitters
// has hitters to find.
func (g *opGen) appendBodies() [][]byte {
	bodies := make([][]byte, appendPool)
	for n := range bodies {
		r := g.rng(-2 - n)
		z := rand.NewZipf(r, 1.3, 1, 199)
		var b bytes.Buffer
		b.WriteString(`{"rows":[`)
		ts := int64(1_700_000_000_000) + int64(n)*int64(g.size.batchRows)
		for i := 0; i < g.size.batchRows; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `[%d,%.4f,%.4f,"m%d"]`, ts+int64(i), r.Float64()*180-90, r.Float64()*360-180, z.Uint64())
		}
		b.WriteString(`]}`)
		bodies[n] = b.Bytes()
	}
	return bodies
}

func (g *opGen) appendOp(body []byte) op {
	return op{class: classAppend, view: g.w.view, rows: g.size.batchRows, body: body,
		path: query("/api/ingest", "op", "append", "name", g.w.view)}
}
