// Package storage is Hillview's data layer (paper §2, §5.4): readers
// for common formats (CSV, JSON lines), the columnar binary format
// (.hvc), and shard scanning that turns directories of files into
// micropartitioned datasets.
//
// An .hvc file is an HVC2 file, the mmap-native layout owned by package
// colstore; there is no other version. Column bytes reach a scan one
// way: NewLoader, the one loader, resolves a source into a lazy,
// budgeted leaf source behind a colstore.Pool (PooledSource) — the
// paper's data cache organized by (source, column) — so every .hvc
// file's column data maps in on first touch, stays resident only while
// the budget allows, and a worker's dataset size is bounded by its
// disks, not its RAM. CSV and JSON lines files and registered schemes
// become resident partitions of the same source.
//
// The layer honors the two storage contracts of the paper: data is
// horizontally partitioned into roughly equal shards readable in
// parallel, and sources are immutable snapshots while Hillview runs —
// re-reading a source always reproduces the same table, which is what
// makes soft-state recovery by replay sound.
package storage

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/table"
)

// InferenceSample is how many rows the schema inferrer examines.
const InferenceSample = 1000

// InferKind guesses the kind of a column from sample string values:
// ints if every non-empty value parses as an integer, doubles if every
// value parses as a number, dates for ISO dates, strings otherwise.
func InferKind(samples []string) table.Kind {
	isInt, isDouble, isDate, any := true, true, true, false
	for _, s := range samples {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		any = true
		if _, err := strconv.ParseInt(s, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(s, 64); err != nil {
			isDouble = false
		}
		if _, err := parseDate(s); err != nil {
			isDate = false
		}
	}
	switch {
	case !any:
		return table.KindString
	case isInt:
		return table.KindInt
	case isDouble:
		return table.KindDouble
	case isDate:
		return table.KindDate
	default:
		return table.KindString
	}
}

// ParseValue converts a raw string cell into a Value of the given kind.
// Empty cells are missing; unparseable cells are missing as well (raw
// enterprise data is full of them, and the spreadsheet must not refuse
// to load a file over a bad cell).
func ParseValue(s string, kind table.Kind) table.Value {
	s = strings.TrimSpace(s)
	if s == "" {
		return table.MissingValue(kind)
	}
	switch kind {
	case table.KindInt:
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return table.MissingValue(kind)
		}
		return table.IntValue(v)
	case table.KindDouble:
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return table.MissingValue(kind)
		}
		return table.DoubleValue(v)
	case table.KindDate:
		t, err := parseDate(s)
		if err != nil {
			return table.MissingValue(kind)
		}
		return table.Value{Kind: table.KindDate, I: t}
	default:
		return table.StringValue(s)
	}
}

// dateFormats are the accepted date layouts, most specific first.
var dateFormats = []string{
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05Z",
	"2006-01-02",
	"2006/01/02",
}

func parseDate(s string) (int64, error) {
	for _, layout := range dateFormats {
		if t, err := parseInUTC(layout, s); err == nil {
			return t, nil
		}
	}
	return 0, fmt.Errorf("storage: unparseable date %q", s)
}
