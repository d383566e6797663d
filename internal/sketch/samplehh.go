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

// Summarize implements Sketch.
func (s *SampleHeavyHittersSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	out := &HeavyHitters{K: s.K, Counters: map[table.Value]int64{}, Sampled: true}
	sampleValues(t.Members(), col, sampleRate(s.Rate), PartitionSeed(s.Seed, t.ID()), func(vals []table.Value) {
		out.ScannedRows += int64(len(vals))
		for _, v := range vals {
			out.Counters[v]++
		}
	})
	return out, nil
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
