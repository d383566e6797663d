package sketch

import (
	"fmt"

	"repro/internal/table"
)

// SampleHeavyHittersSketch finds heavy hitters by uniform sampling
// (paper §4.3): sample ~n = K²·log(K/δ) rows and keep values occurring
// at least 3n/4K times. "This method is particularly efficient if K is
// small." A Rate outside (0, 1) counts every member row (sampleRate).
type SampleHeavyHittersSketch struct {
	Col  string
	K    int
	Rate float64
	Seed uint64
}

// Name implements Sketch.
func (s *SampleHeavyHittersSketch) Name() string {
	return fmt.Sprintf("sample-hh(%s,k=%d,r=%g,seed=%d)", s.Col, s.K, s.Rate, s.Seed)
}

// Zero implements Sketch.
func (s *SampleHeavyHittersSketch) Zero() Result {
	return &HeavyHitters{K: s.K, Counters: map[table.Value]int64{}, Sampled: true}
}

// Summarize implements Sketch. It tallies the scanned cells by their
// stored representation, as MisraGriesSketch does: dictionary codes
// densely up to mgDenseDictMax codes and in a code-keyed map above that,
// int and date cells in an int64-keyed map, double cells in a
// float64-keyed map, and missing rows in one counter. The tallies become
// table.Value-keyed Counters once, at the end. A float64 map key
// compares as the Value key would: -0 and +0 are one key, and each NaN
// is a key of its own.
func (s *SampleHeavyHittersSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	out := &HeavyHitters{K: s.K, Sampled: true}
	m, rate, seed := t.Members(), sampleRate(s.Rate), PartitionSeed(s.Seed, t.ID())
	scan := func(rowsf func(rows []int32)) {
		if rate < 1 {
			sampleBatches(m, rate, seed, rowsf)
		} else {
			gatherBatches(m, rowsf)
		}
	}
	var missing int64
	switch c := col.(type) {
	case *table.IntColumn:
		kind := c.Kind()
		out.Counters = valueCounts(tallyCells(scan, c.Ints(), c.MissingMask(), &missing),
			func(v int64) table.Value { return table.Value{Kind: kind, I: v} })
	case *table.DoubleColumn:
		out.Counters = valueCounts(tallyCells(scan, c.Doubles(), c.MissingMask(), &missing), table.DoubleValue)
	case *table.StringColumn:
		codes, dict, miss := c.Codes(), c.Dict(), c.MissingMask()
		value := func(code int32) table.Value { return table.StringValue(dict[code]) }
		if len(dict) > mgDenseDictMax {
			out.Counters = valueCounts(tallyCells(scan, codes, miss, &missing), value)
			break
		}
		dense := make([]int64, len(dict))
		scan(func(rows []int32) {
			for _, r := range rows {
				if miss.Get(int(r)) {
					missing++
				} else {
					dense[codes[r]]++
				}
			}
		})
		out.Counters = map[table.Value]int64{}
		for code, n := range dense {
			if n > 0 {
				out.Counters[value(int32(code))] = n
			}
		}
	}
	if missing > 0 {
		out.Counters[table.MissingValue(col.Kind())] = missing
	}
	// Every scanned row is in exactly one counter.
	for _, n := range out.Counters {
		out.ScannedRows += n
	}
	return out, nil
}

// tallyCells counts the scanned cells of vals by value, and missing rows
// in *missing.
func tallyCells[T comparable](scan func(rowsf func(rows []int32)), vals []T, miss *table.Bitset, missing *int64) map[T]int64 {
	counts := map[T]int64{}
	scan(func(rows []int32) {
		for _, r := range rows {
			if miss.Get(int(r)) {
				*missing++
			} else {
				counts[vals[r]]++
			}
		}
	})
	return counts
}

// valueCounts converts typed tallies to table.Value-keyed counters, with
// room for the missing counter.
func valueCounts[T comparable](counts map[T]int64, value func(T) table.Value) map[table.Value]int64 {
	out := make(map[table.Value]int64, len(counts)+1)
	for v, n := range counts {
		out[value(v)] = n
	}
	return out
}

// Merge implements Sketch: sample counts add; the threshold is applied
// only at render time so merging stays lossless.
func (s *SampleHeavyHittersSketch) Merge(a, b Result) (Result, error) {
	ha, hb, err := heavyArgs(a, b)
	if err != nil {
		return nil, err
	}
	out := &HeavyHitters{
		K:           s.K,
		Counters:    make(map[table.Value]int64, len(ha.Counters)+len(hb.Counters)),
		ScannedRows: ha.ScannedRows + hb.ScannedRows,
		Sampled:     true,
	}
	for v, c := range ha.Counters {
		out.Counters[v] = c
	}
	for v, c := range hb.Counters {
		out.Counters[v] += c
	}
	return out, nil
}
