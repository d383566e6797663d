// Heavyhitters: log-exploration workflow — the "which server is
// misbehaving" scenario from the paper's introduction. A synthetic
// service log (timestamp, server, level, latency, message) is scanned
// with heavy hitters, free-text search, filtering, and a trellis of
// heat maps, then the suspicious slice is exported as CSV.
//
//	go run ./examples/heavyhitters
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/render"
	"repro/internal/sketch"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

// genLog writes a synthetic service log: server "gandalf" is the
// misbehaving needle (over-represented and slow).
func genLog(path string, n int) error {
	schema := table.NewSchema(
		table.ColumnDesc{Name: "ts", Kind: table.KindInt},
		table.ColumnDesc{Name: "server", Kind: table.KindString},
		table.ColumnDesc{Name: "level", Kind: table.KindString},
		table.ColumnDesc{Name: "latency_ms", Kind: table.KindDouble},
		table.ColumnDesc{Name: "message", Kind: table.KindString},
	)
	servers := []string{"frodo", "sam", "merry", "pippin", "aragorn", "legolas", "gimli", "boromir"}
	msgs := []string{"request served", "cache miss", "retry scheduled", "connection reset by peer", "slow query detected"}
	rng := rand.New(rand.NewPCG(7, 11))
	b := table.NewBuilder(schema, n)
	for i := 0; i < n; i++ {
		server := servers[rng.IntN(len(servers))]
		level := "INFO"
		latency := rng.ExpFloat64() * 20
		if rng.Float64() < 0.15 { // the needle
			server = "gandalf"
			latency = 200 + rng.ExpFloat64()*300
			if rng.Float64() < 0.4 {
				level = "ERROR"
			}
		} else if rng.Float64() < 0.02 {
			level = "WARN"
		}
		b.AppendRow(table.Row{
			table.IntValue(int64(1700000000 + i)),
			table.StringValue(server),
			table.StringValue(level),
			table.DoubleValue(latency),
			table.StringValue(msgs[rng.IntN(len(msgs))]),
		})
	}
	return storage.WriteCSV(path, b.Freeze("log"))
}

func main() {
	dir, err := os.MkdirTemp("", "hillview-logs")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "service.csv")
	if err := genLog(path, 300000); err != nil {
		log.Fatal(err)
	}

	sheet := spreadsheet.New(engine.NewRoot(storage.NewLoader(engine.Config{}, 50000, nil)))
	view, err := sheet.Load(context.Background(), "log", "file:"+path)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("log: %d rows\n\n", view.NumRows())

	// Step 1: who produces the most log lines?
	fmt.Println("— heavy hitters over servers —")
	hh, err := view.HeavyHitters(ctx, "server", 10, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.HeavyHittersASCII(hh, view.NumRows()))

	// Step 2: find the first ERROR from the suspect (free-text search).
	suspect := hh[0].Value.S
	res, err := view.Find(ctx, "level", "ERROR", sketch.MatchExact, true,
		table.Asc("ts"), []string{"server", "latency_ms", "message"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if res.Match != nil {
		fmt.Printf("first ERROR at ts=%s on %s (%s ms): %q — %d matches total\n\n",
			res.Match[0].String(), res.Match[1].String(), res.Match[2].String(), res.Match[3].S, res.MatchesAfter)
	}

	// Step 3: isolate the suspect and compare latency distributions.
	sv, err := view.FilterExpr(ctx, fmt.Sprintf("server == %q", suspect))
	if err != nil {
		log.Fatal(err)
	}
	rest, err := view.FilterExpr(ctx, fmt.Sprintf("server != %q", suspect))
	if err != nil {
		log.Fatal(err)
	}
	for name, v := range map[string]*spreadsheet.View{suspect: sv, "others": rest} {
		m, err := v.ColumnSummary(ctx, "latency_ms")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %s", name, render.MomentsASCII("latency_ms", m))
	}

	// Step 4: latency histogram of the suspect.
	hv, err := sv.Histogram(ctx, "latency_ms", spreadsheet.ChartOptions{Bars: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n— %s latency distribution —\n", suspect)
	fmt.Println(render.HistogramASCII(hv.Hist, 60, 10))

	// Step 5: export the suspicious slice for the next pipeline stage
	// (paper §2: Hillview sits inside a larger analytics pipeline).
	outDir := filepath.Join(dir, "suspect")
	if err := sv.SaveCSV(ctx, outDir); err != nil {
		log.Fatal(err)
	}
	files, _ := os.ReadDir(outDir)
	fmt.Printf("exported %d rows to %s (%d files)\n", sv.NumRows(), outDir, len(files))
}
