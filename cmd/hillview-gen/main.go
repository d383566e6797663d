// Command hillview-gen materializes the synthetic flights dataset as
// data files for the storage layer: CSV, JSON lines, or the columnar
// format "hvc2" — the mmap-native HVC2 layout the column store serves
// zero-copy, written with the .hvc extension. Use it to prepare shards
// for worker machines or cold-start benchmarks (Figure 6).
//
// Usage:
//
//	hillview-gen -rows 1000000 -parts 8 -cols 110 -format hvc2 -out ./data
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/colstore"
	"repro/internal/flights"
	"repro/internal/storage"
	"repro/internal/table"
)

func main() {
	rows := flag.Int("rows", 1000000, "total rows to generate")
	parts := flag.Int("parts", 8, "number of files (shards)")
	cols := flag.Int("cols", flights.CoreColumns, "schema width (padding columns beyond the core 20)")
	seed := flag.Uint64("seed", 1, "generator seed")
	format := flag.String("format", "hvc2", "output format: csv, jsonl, or hvc2 (columnar, .hvc files)")
	out := flag.String("out", "data", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("hillview-gen: %v", err)
	}
	write := func(path string, t *table.Table) error {
		switch *format {
		case "csv":
			return storage.WriteCSV(path, t)
		case "jsonl":
			return storage.WriteJSONL(path, t)
		case "hvc2":
			return colstore.WriteHVC2(path, t)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
	}
	ext := *format
	if ext == "hvc2" {
		ext = "hvc"
	}
	partsList := flights.GenPartitions("flights", *rows, *parts, *seed, *cols)
	total := 0
	for i, t := range partsList {
		path := filepath.Join(*out, fmt.Sprintf("flights-%03d.%s", i, ext))
		if err := write(path, t); err != nil {
			log.Fatalf("hillview-gen: %s: %v", path, err)
		}
		// Generated shards feed worker machines and cold-start
		// benchmarks; sync each so a crash right after "done" cannot
		// leave a torn or empty shard behind.
		if err := storage.SyncFile(path); err != nil {
			log.Fatalf("hillview-gen: %s: %v", path, err)
		}
		total += t.NumRows()
		fmt.Printf("wrote %s (%d rows)\n", path, t.NumRows())
	}
	if err := storage.SyncDir(*out); err != nil {
		log.Fatalf("hillview-gen: %s: %v", *out, err)
	}
	fmt.Printf("done: %d rows × %d columns = %d cells in %d files\n",
		total, *cols, total**cols, len(partsList))
}
