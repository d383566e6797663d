// Quickstart: load a CSV file, page through it sorted, and draw a
// histogram with a CDF overlay — the minimal Hillview session.
//
//	go run ./examples/quickstart [file.csv]
//
// Without an argument it writes and uses a small sample file.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/engine"
	"repro/internal/render"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

func main() {
	path := sampleCSV()
	if len(os.Args) > 1 {
		path = os.Args[1]
	}

	// The stack: storage loader → engine root → spreadsheet session.
	root := engine.NewRoot(storage.NewLoader(engine.Config{}, 0, nil))
	sheet := spreadsheet.New(root)
	view, err := sheet.Load(context.Background(), "data", "file:"+path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d rows, schema: %s\n\n", path, view.NumRows(), view.Schema())

	ctx := context.Background()

	// A sorted tabular page (duplicates aggregate into counts).
	first := view.Schema().Columns[0].Name
	page, err := view.TableView(ctx, table.Asc(first), restOf(view), 10, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.TableASCII(page, view.Schema().Names()))

	// A histogram + CDF of the first numeric column.
	for _, cd := range view.Schema().Columns {
		if !cd.Kind.Numeric() {
			continue
		}
		hv, err := view.Histogram(ctx, cd.Name, spreadsheet.ChartOptions{Bars: 30, WithCDF: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("histogram of %s (sample rate %.3g):\n", cd.Name, hv.Hist.SampleRate)
		fmt.Println(render.HistogramASCII(hv.Hist, 60, 12))
		break
	}
}

// restOf lists the non-leading columns for the table view.
func restOf(v *spreadsheet.View) []string {
	names := v.Schema().Names()
	if len(names) <= 1 {
		return nil
	}
	return names[1:]
}

// sampleCSV writes a small demo file next to the binary's temp space.
func sampleCSV() string {
	dir, err := os.MkdirTemp("", "hillview-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "cities.csv")
	data := `city,population,area
tokyo,37400068,2194
delhi,29399141,1484
shanghai,26317104,6341
sao paulo,21846507,1521
mexico city,21671908,1485
cairo,20484965,3085
dhaka,20283552,306
mumbai,20185064,603
beijing,20035455,16411
osaka,19222665,225
`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		log.Fatal(err)
	}
	return path
}
