package table

import (
	"fmt"
	"math/rand/v2"
)

// This file is the randomized-table generator behind the testkit
// correctness harness (internal/testkit): from a single seed it produces
// a deterministic partitioned table exercising every column kind,
// missing-value density, dictionary size, and membership representation
// the sketches have kernels for. It lives in package table (rather than
// in the harness) because it is the ground-truth companion of the
// batch-iteration contract documented here: any new column or membership
// representation should extend the generator in the same change.
//
// Determinism is load-bearing: the cluster harness regenerates the same
// partitions on worker processes from the same (seed, rows, parts)
// triple, so partition tables — including their stable IDs, which
// randomized sketches derive per-partition seeds from — must be
// bit-identical across processes and runs. Everything derives from one
// PCG stream; no global or time-dependent state.

// GenInfo describes the value domains of a generated table, so harness
// code can build bucket specs and ground-truth predicates without
// re-deriving them from the data.
type GenInfo struct {
	// IntLo/IntHi bound the "gi" column values (inclusive lo, exclusive hi).
	IntLo, IntHi int64
	// DoubleLo/DoubleHi bound the "gd" column values.
	DoubleLo, DoubleHi float64
	// DateLo/DateHi bound the "gt" column values (millis since epoch).
	DateLo, DateHi int64
	// DictValues is the full candidate dictionary of the "gs" column,
	// sorted ascending; each partition's column dictionary is the subset
	// that actually occurs there.
	DictValues []string
	// MemberRows counts member (visible) rows across all partitions.
	MemberRows int64
}

// GenSchema is the schema of generated tables: one column per kind, so
// sketches over every kernel are reachable from one table. GenPartitions
// appends a fifth, "gc", a double column derived from "gi".
var GenSchema = NewSchema(
	ColumnDesc{Name: "gi", Kind: KindInt},
	ColumnDesc{Name: "gd", Kind: KindDouble},
	ColumnDesc{Name: "gs", Kind: KindString},
	ColumnDesc{Name: "gt", Kind: KindDate},
)

// genMix is a splitmix-style finalizer used for per-row membership
// decisions, so a membership shape is a pure function of (seed, part,
// row) and never depends on RNG draw order.
func genMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// GenPartitions generates a deterministic randomized table: parts
// partitions of about rows physical rows each (sizes vary per partition;
// one partition may be empty), with IDs "<prefix>-p<k>". The same
// arguments always produce bit-identical tables. No NaN values are
// generated: missing cells model absent data, and NaN map-key semantics
// are deliberately out of the differential oracle's scope (the
// value-keyed reference path treats every NaN as a distinct key).
func GenPartitions(prefix string, seed uint64, rows, parts int) ([]*Table, GenInfo) {
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))

	// Value domains, drawn once so every partition shares them.
	dictSize := []int{1, 2, 17, 300, 5000}[rng.IntN(5)]
	intSpan := []int64{3, 40, 1000, 1 << 40}[rng.IntN(4)]
	intLo := rng.Int64N(1000) - 500
	dLo := rng.Float64()*200 - 100
	dHi := dLo + 1 + rng.Float64()*1000
	dateLo := int64(1500000000000) + rng.Int64N(1e9)
	dateSpan := 1 + rng.Int64N(1e9)
	// Per-column missing densities.
	missProb := func() float64 { return []float64{0, 0, 0.005, 0.25}[rng.IntN(4)] }
	missI, missD, missS, missT := missProb(), missProb(), missProb(), missProb()

	info := GenInfo{
		IntLo: intLo, IntHi: intLo + intSpan,
		DoubleLo: dLo, DoubleHi: dHi,
		DateLo: dateLo, DateHi: dateLo + dateSpan,
		DictValues: make([]string, dictSize),
	}
	for i := range info.DictValues {
		info.DictValues[i] = fmt.Sprintf("w%05d", i)
	}

	out := make([]*Table, parts)
	for p := 0; p < parts; p++ {
		n := rows/2 + rng.IntN(rows+1)
		if parts > 1 && p == parts-1 && rng.IntN(4) == 0 {
			n = 0 // empty-partition edge case
		}
		gi := make([]int64, n)
		gd := make([]float64, n)
		gs := make([]string, n)
		gt := make([]int64, n)
		var mi, md, ms, mt *Bitset
		mark := func(b **Bitset, i int) {
			if *b == nil {
				*b = NewBitset(n)
			}
			(*b).Set(i)
		}
		for i := 0; i < n; i++ {
			if rng.Float64() < missI {
				mark(&mi, i)
			} else {
				gi[i] = intLo + rng.Int64N(intSpan)
			}
			if rng.Float64() < missD {
				mark(&md, i)
			} else {
				gd[i] = dLo + rng.Float64()*(dHi-dLo)
			}
			if rng.Float64() < missS {
				mark(&ms, i)
			} else {
				// Skewed code draw so heavy hitters exist at every
				// dictionary size.
				c := rng.IntN(dictSize)
				if rng.IntN(2) == 0 {
					c = min(c, rng.IntN(dictSize))
				}
				gs[i] = info.DictValues[c]
			}
			if rng.Float64() < missT {
				mark(&mt, i)
			} else {
				gt[i] = dateLo + rng.Int64N(dateSpan)
			}
		}
		id := fmt.Sprintf("%s-p%d", prefix, p)
		t := New(id, GenSchema, []Column{
			NewIntColumn(KindInt, gi, mi),
			NewDoubleColumn(gd, md),
			NewStringColumn(gs, ms),
			NewIntColumn(KindDate, gt, mt),
		}, FullMembership(n))

		// "gc" is (gi mod 97) / 2, missing where gi is: a double column
		// appended to a frozen table, as a derive appends one.
		gc := make([]float64, n)
		for i, v := range gi {
			gc[i] = float64(v%97) * 0.5
		}
		t, _ = t.WithColumn(id, "gc", NewDoubleColumn(gc, mi))

		// Membership shape: full, dense filter (bitmap), sparse filter,
		// or clustered ranges. Row decisions hash (seed, part, row) so
		// the shape is independent of value-draw order.
		switch shape := rng.IntN(4); shape {
		case 1:
			t = t.Filter(id, func(row int) bool {
				return genMix(seed^uint64(p)<<32^uint64(row))%10 < 6
			})
		case 2:
			t = t.Filter(id, func(row int) bool {
				return genMix(seed^uint64(p)<<32^uint64(row))%41 == 0
			})
		case 3:
			t = t.Filter(id, func(row int) bool {
				return row < n/8 || (row >= n/2 && row < n/2+n/8)
			})
		}
		info.MemberRows += int64(t.NumRows())
		out[p] = t
	}
	return out, info
}
