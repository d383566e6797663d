// Flights: an analyst session over the synthetic airline dataset,
// answering questions in the style of the paper's case study (Fig 10):
// which carrier is most delayed, how do delays distribute, what do
// delay × distance look like together and per carrier, and which
// airports dominate.
//
//	go run ./examples/flights [-rows 500000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/render"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
	"repro/internal/table"
)

func main() {
	rows := flag.Int("rows", 500000, "rows to generate")
	flag.Parse()
	flights.Register()

	root := engine.NewRoot(storage.NewLoader(engine.Config{}, 0, nil))
	sheet := spreadsheet.New(root)
	view, err := sheet.Load(context.Background(), "flights", fmt.Sprintf("flights:rows=%d,parts=16,seed=2026", *rows))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("flights: %d rows × %d columns\n\n", view.NumRows(), view.Schema().NumColumns())

	// Q: which carriers dominate, and how late are they?
	fmt.Println("— busiest carriers (Misra–Gries heavy hitters) —")
	hh, err := view.HeavyHitters(ctx, "Carrier", 10, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.HeavyHittersASCII(hh, view.NumRows()))

	for _, carrier := range []string{hh[0].Value.S, hh[1].Value.S} {
		f, err := view.FilterExpr(ctx, fmt.Sprintf("Carrier == %q", carrier))
		if err != nil {
			log.Fatal(err)
		}
		m, err := f.ColumnSummary(ctx, "DepDelay")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s", carrier, render.MomentsASCII("DepDelay", m))
	}

	// Q: how do departure delays distribute?
	fmt.Println("\n— departure delay histogram + CDF —")
	hv, err := view.Histogram(ctx, "DepDelay", spreadsheet.ChartOptions{Bars: 40, WithCDF: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.HistogramASCII(hv.Hist, 80, 12))

	// Q: zoom into the troublesome tail.
	fmt.Println("— zoom: delays above one hour —")
	late, err := view.Zoom(ctx, "DepDelay", 60, hv.Range.Max)
	if err != nil {
		log.Fatal(err)
	}
	lhv, err := late.Histogram(ctx, "DepDelay", spreadsheet.ChartOptions{Bars: 30})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d flights delayed > 60 min\n", late.NumRows())
	fmt.Println(render.HistogramASCII(lhv.Hist, 60, 8))

	// Q: does delay correlate with distance? (heat map)
	fmt.Println("— delay × distance heat map —")
	hm, err := view.Heatmap(ctx, "Distance", "DepDelay", spreadsheet.ChartOptions{Width: 180, Height: 60})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.HeatmapASCII(hm.Result))

	// Q: is that shape the same for every carrier? (trellis: one heat
	// map per group, all from one pass)
	fmt.Println("— delay × distance heat maps by carrier (trellis) —")
	tv, err := view.Trellis(ctx, "Carrier", "Distance", "DepDelay", 4, spreadsheet.ChartOptions{Width: 180, Height: 60})
	if err != nil {
		log.Fatal(err)
	}
	for i, plot := range tv.Result.Plots {
		fmt.Printf("%s:\n%s\n", tv.Result.Group.LabelOf(i), render.HeatmapASCII(plot))
	}

	// Q: derive a new column with the expression language.
	fmt.Println("— derived column: schedule slack (ArrDelay - DepDelay) —")
	derived, err := view.DeriveColumn(ctx, "Slack", "ArrDelay - DepDelay")
	if err != nil {
		log.Fatal(err)
	}
	sm, err := derived.ColumnSummary(ctx, "Slack")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(render.MomentsASCII("Slack", sm))

	// Q: the worst flights, as a sorted table page.
	fmt.Println("\n— ten most delayed flights —")
	page, err := view.TableView(ctx, table.Desc("DepDelay"), []string{"Carrier", "Origin", "Dest", "FlightDate"}, 10, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(render.TableASCII(page, []string{"DepDelay", "Carrier", "Origin", "Dest", "FlightDate"}))
}
