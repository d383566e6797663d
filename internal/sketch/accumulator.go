package sketch

import "repro/internal/table"

// This file implements the Accumulator fast path (see sketch.go) for
// the hot sketches: histogram (exact, sampled, CDF), hist2d, distinct,
// and heavy hitters. Each accumulator owns one mutable summary that
// every Add folds into, and caches per-column scan state (batch
// indexers, dictionary hash tables, code counters) so tables sharing
// column storage pay the per-column setup once instead of once per Add.

// histAccumulator folds tables into one mutable Histogram. It serves
// the exact, sampled, and CDF histogram sketches, which differ only in
// how the rate selects the scan.
type histAccumulator struct {
	col     string
	buckets BucketSpec
	exact   bool    // true: full scan; false: sampled scan at rate
	rate    float64 // per-row inclusion probability when !exact
	seed    uint64
	h       *Histogram
	lastCol table.Column
	lastBI  BatchIndexer
}

// NewAccumulator implements AccumulatorSketch.
func (s *HistogramSketch) NewAccumulator() Accumulator {
	return &histAccumulator{col: s.Col, buckets: s.Buckets, exact: true, h: s.Zero().(*Histogram)}
}

// NewAccumulator implements AccumulatorSketch. Sampling dispatch mirrors
// Summarize: the sampled scan itself degenerates to the exact scan for
// rate ≥ 1.
func (s *SampledHistogramSketch) NewAccumulator() Accumulator {
	return &histAccumulator{col: s.Col, buckets: s.Buckets, rate: s.Rate, seed: s.Seed, h: s.Zero().(*Histogram)}
}

// NewAccumulator implements AccumulatorSketch. As in Summarize, a
// non-positive rate means exact computation.
func (s *CDFSketch) NewAccumulator() Accumulator {
	return &histAccumulator{
		col: s.Col, buckets: s.Buckets,
		exact: s.Rate <= 0, rate: s.Rate, seed: s.Seed,
		h: s.Zero().(*Histogram),
	}
}

func (a *histAccumulator) indexer(c table.Column) (BatchIndexer, error) {
	if c == a.lastCol {
		return a.lastBI, nil
	}
	bi, err := a.buckets.BatchIndexer(c)
	if err != nil {
		return nil, err
	}
	a.lastCol, a.lastBI = c, bi
	return bi, nil
}

// Add implements Accumulator.
func (a *histAccumulator) Add(t *table.Table) error {
	c, err := t.Column(a.col)
	if err != nil {
		return err
	}
	bi, err := a.indexer(c)
	if err != nil {
		return err
	}
	if a.exact {
		histogramScan(t.Members(), bi, a.h)
	} else {
		histogramSampleScan(t.Members(), bi, a.h, a.rate, PartitionSeed(a.seed, t.ID()))
	}
	return nil
}

// Result implements Accumulator.
func (a *histAccumulator) Result() Result { return a.h }

// hist2dAccumulator folds tables into one mutable Histogram2D with both
// axis indexers cached per column pair.
type hist2dAccumulator struct {
	sk           *Histogram2DSketch
	h            *Histogram2D
	lastX, lastY table.Column
	xIdx, yIdx   BatchIndexer
}

// NewAccumulator implements AccumulatorSketch.
func (s *Histogram2DSketch) NewAccumulator() Accumulator {
	return &hist2dAccumulator{sk: s, h: s.Zero().(*Histogram2D)}
}

// Add implements Accumulator.
func (a *hist2dAccumulator) Add(t *table.Table) error {
	xcol, err := t.Column(a.sk.XCol)
	if err != nil {
		return err
	}
	ycol, err := t.Column(a.sk.YCol)
	if err != nil {
		return err
	}
	if xcol != a.lastX {
		if a.xIdx, err = a.sk.X.BatchIndexer(xcol); err != nil {
			return err
		}
		a.lastX = xcol
	}
	if ycol != a.lastY {
		if a.yIdx, err = a.sk.Y.BatchIndexer(ycol); err != nil {
			return err
		}
		a.lastY = ycol
	}
	a.sk.scanInto(a.h, t, a.xIdx, a.yIdx)
	return nil
}

// Result implements Accumulator.
func (a *hist2dAccumulator) Result() Result { return a.h }

// distinctAccumulator streams tables into one mutable HLL. Register max
// is associative and commutative, so streaming equals merging per-table
// HLLs exactly — without the per-table register allocation — and the
// dictionary hash table is cached per column.
type distinctAccumulator struct {
	sk      *DistinctCountSketch
	out     *HLL
	lastCol table.Column
	hashes  []uint64
}

// NewAccumulator implements AccumulatorSketch.
func (s *DistinctCountSketch) NewAccumulator() Accumulator {
	return &distinctAccumulator{sk: s, out: s.Zero().(*HLL)}
}

// Add implements Accumulator.
func (a *distinctAccumulator) Add(t *table.Table) error {
	col, err := t.Column(a.sk.Col)
	if err != nil {
		return err
	}
	if sc, ok := col.(*table.StringColumn); ok && col != a.lastCol {
		a.hashes = dictHashes(sc)
		a.lastCol = col
	}
	a.sk.scanInto(a.out, t, col, a.hashes)
	return nil
}

// Result implements Accumulator.
func (a *distinctAccumulator) Result() Result { return a.out }

// mgAccumulator folds tables into one mutable Misra–Gries state. For
// stored columns it keeps one keyed state live across Adds sharing a
// column — mgCodes for dictionary strings, which tallies small
// dictionaries exactly and streams large ones; mgTyped, an int64-keyed
// stream, for ints/dates/doubles — and flushes it into the value-keyed
// merged state with Merge only when the column changes, so a tallied
// column is pruned once, not once per Add. Over one table the result is
// Summarize's; over several, like any Misra–Gries merge order, it is
// exact to Summarize+Merge only within the N/(K+1) error bound.
type mgAccumulator struct {
	sk    *MisraGriesSketch
	k     int
	state *HeavyHitters
	col   table.Column // column of the live keyed state, nil when none
	codes *mgCodes     // live tally or stream of a dictionary column...
	typed *mgTyped     // ...or live stream of a stored numeric column
}

// NewAccumulator implements AccumulatorSketch.
func (s *MisraGriesSketch) NewAccumulator() Accumulator {
	k := s.K
	if k < 1 {
		k = 1
	}
	return &mgAccumulator{sk: s, k: k, state: s.Zero().(*HeavyHitters)}
}

// live converts the live keyed state (if any) to a summary.
func (a *mgAccumulator) live() *HeavyHitters {
	switch {
	case a.codes != nil:
		return a.codes.result(a.sk.K, a.col.(*table.StringColumn).Dict())
	case a.typed != nil:
		return a.typed.result(a.sk.K)
	default:
		return nil
	}
}

// flush merges the live keyed state into the value-keyed state.
func (a *mgAccumulator) flush() error {
	r := a.live()
	if r == nil {
		return nil
	}
	merged, err := a.sk.Merge(a.state, r)
	if err != nil {
		return err
	}
	a.state = merged.(*HeavyHitters)
	a.col, a.codes, a.typed = nil, nil, nil
	return nil
}

// Add implements Accumulator.
func (a *mgAccumulator) Add(t *table.Table) error {
	col, err := t.Column(a.sk.Col)
	if err != nil {
		return err
	}
	switch c := col.(type) {
	case *table.StringColumn:
		if col != a.col {
			if err := a.flush(); err != nil {
				return err
			}
			a.col, a.codes = c, newMGCodes(a.k, c.DictSize())
		}
		a.codes.scan(t.Members(), c)
		return nil
	case *table.IntColumn, *table.DoubleColumn:
		if col != a.col {
			if err := a.flush(); err != nil {
				return err
			}
			a.col, a.typed = col, newMGTyped(a.k, col)
		}
		a.typed.scan(t.Members(), col)
		return nil
	}
	if err := a.flush(); err != nil {
		return err
	}
	r, err := a.sk.Summarize(t)
	if err != nil {
		return err
	}
	merged, err := a.sk.Merge(a.state, r)
	if err != nil {
		return err
	}
	a.state = merged.(*HeavyHitters)
	return nil
}

// Result implements Accumulator.
func (a *mgAccumulator) Result() Result {
	if err := a.flush(); err != nil {
		// Merge of two *HeavyHitters cannot fail; keep the flushed state.
		return a.state
	}
	return a.state
}
