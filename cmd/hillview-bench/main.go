// Command hillview-bench regenerates the paper's evaluation artifacts
// (§7): every table and figure has an experiment id. Absolute numbers
// differ from the paper's 8-server testbed — the shapes (who wins, by
// what factor, how curves scale) are the reproduction targets; writing
// down what they measure here is open item 17 of ROADMAP.md.
//
// Usage:
//
//	hillview-bench -exp all            # everything, laptop scale
//	hillview-bench -exp fig5 -base 1000000 -workers 8
//	hillview-bench -exp micro -rows 100000000   # paper-scale §7.2.1
//
// Experiments: fig5, fig6, micro, fig7, fig8, fig9, fig11, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/spreadsheet"
	"repro/internal/storage"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5|fig6|micro|fig7|fig8|fig9|fig11|ablate|all")
	base := flag.Int("base", 100000, "1x dataset rows (paper: 130M)")
	cols := flag.Int("cols", 110, "schema width (paper: 110)")
	workers := flag.Int("workers", 4, "worker servers (paper: 8)")
	microRows := flag.Int("rows", 5000000, "rows for the §7.2.1 microbenchmark (paper: 100M)")
	rowsPerLeaf := flag.Int("rowsperleaf", 100000, "rows per leaf for the scaling figures")
	seed := flag.Uint64("seed", 1, "data generator seed")
	sketchDir := flag.String("sketchdir", "internal/sketch", "vizketch source dir for fig9")
	flag.Parse()

	p := bench.DefaultParams()
	p.BaseRows = *base
	p.Cols = *cols
	p.Workers = *workers
	p.Seed = *seed

	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}

	run("fig5", func() error {
		res, err := bench.RunFig5(p, []int{5, 10, 100}, 5)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("fig6", func() error {
		dir, err := os.MkdirTemp("", "hillview-cold")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		res, err := bench.RunFig6(p, []int{5, 10}, dir)
		if err != nil {
			return err
		}
		res.PrintFig6(os.Stdout)
		return nil
	})
	run("micro", func() error {
		res, err := bench.RunMicro(*microRows, *seed)
		if err != nil {
			return err
		}
		res.Print(os.Stdout)
		return nil
	})
	run("fig7", func() error {
		pts, err := bench.RunFig7(*rowsPerLeaf, []int{1, 2, 4, 8, 16, 32, 64}, *seed)
		if err != nil {
			return err
		}
		bench.PrintScale(os.Stdout,
			"Figure 7: scalability in leaf count (shards grow with leaves; flat = ideal)",
			"leaves", pts)
		return nil
	})
	run("fig8", func() error {
		pts, err := bench.RunFig8(p, *rowsPerLeaf/4, 16, []int{1, 2, 3, 4, 5, 6, 7, 8})
		if err != nil {
			return err
		}
		bench.PrintScale(os.Stdout,
			"Figure 8: scalability in servers (data grows with servers; flat = ideal; per-server core budget fixed)",
			"servers", pts)
		return nil
	})
	run("fig9", func() error {
		entries, err := bench.RunFig9(*sketchDir)
		if err != nil {
			return fmt.Errorf("%w (run from the repository root or set -sketchdir)", err)
		}
		bench.PrintFig9(os.Stdout, entries)
		return nil
	})
	run("ablate", func() error {
		wp, err := bench.RunAblateWindow(p, []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, -1})
		if err != nil {
			return err
		}
		bench.PrintWindowAblation(os.Stdout, wp)
		fmt.Println()
		// Each point's partitions are its scan units: the 2M-row point is
		// one micropartition on one thread.
		mp, err := bench.RunAblateMicroParts(2000000, []int{10000, 50000, 250000, 1000000, 2000000}, *seed)
		if err != nil {
			return err
		}
		bench.PrintMicroPartAblation(os.Stdout, mp)
		fmt.Println()
		cp, err := bench.RunAblateCrossover([]int{100000, 500000, 2000000, 5000000}, *seed)
		if err != nil {
			return err
		}
		bench.PrintCrossoverAblation(os.Stdout, cp)
		return nil
	})
	run("fig11", func() error {
		root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
		sheet := spreadsheet.New(root)
		view, err := sheet.Load(context.Background(), "flights-1x",
			fmt.Sprintf("flights:rows=%d,parts=8,cols=%d,seed=%d", p.BaseRows, p.Cols, p.Seed))
		if err != nil {
			return err
		}
		results, err := bench.RunFig11(view)
		if err != nil {
			return err
		}
		bench.PrintFig11(os.Stdout, results)
		return nil
	})

	if !strings.Contains("fig5 fig6 micro fig7 fig8 fig9 fig11 ablate all", *exp) {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
