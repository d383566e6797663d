package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/table"
)

// DataRange is the summary of the range vizketch: column extrema and
// presence counts. It is the output of the preparation phase that every
// chart needs to pick bucket boundaries and sampling rates (paper §5.3),
// and it is deterministic, so the engine caches it.
type DataRange struct {
	Kind table.Kind
	// Min and Max bound the numeric values (valid when Present > 0 and
	// Kind is numeric).
	Min, Max float64
	// MinS and MaxS bound string values (valid when Present > 0 and
	// Kind is KindString).
	MinS, MaxS string
	// Present counts non-missing member rows; Missing the rest.
	Present, Missing int64
}

// RangeSketch computes a DataRange for one column.
type RangeSketch struct {
	Col string
}

// Name implements Sketch.
func (s *RangeSketch) Name() string { return fmt.Sprintf("range(%s)", s.Col) }

// CacheKey implements Cacheable.
func (s *RangeSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *RangeSketch) Zero() Result { return &DataRange{} }

// Summarize implements Sketch with the typed extrema kernel over the
// column's backing slice.
func (s *RangeSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	out := &DataRange{Kind: col.Kind()}
	switch c := col.(type) {
	case *table.IntColumn:
		// float64 conversion is monotone, so the int extrema convert to
		// the reference path's.
		e := rangeScan(t.Members(), c.Ints(), c.MissingMask())
		if e.present > 0 {
			out.Min, out.Max = float64(e.min), float64(e.max)
		}
		out.Present, out.Missing = e.present, e.missing
	case *table.DoubleColumn:
		e := rangeScan(t.Members(), c.Doubles(), c.MissingMask())
		out.Min, out.Max, out.Present, out.Missing = e.min, e.max, e.present, e.missing
	case *table.StringColumn:
		// The dictionary is sorted, so code order is lexicographic order.
		e := rangeScan(t.Members(), c.Codes(), c.MissingMask())
		if e.present > 0 {
			out.MinS, out.MaxS = c.Dict()[e.min], c.Dict()[e.max]
		}
		out.Present, out.Missing = e.present, e.missing
	}
	return out, nil
}

// extrema is the state of the range kernel over one column's backing
// slice: int values, doubles or dictionary codes. It is the reference
// path's rule, visited in row order: the first present row seeds min and
// max, and a later row replaces one only on a strict < or >, so a NaN
// first value stays and the first of equal values (-0 and +0) wins.
// Each form loads the state into locals for its batch and stores it
// back once; a missing mask is read a word at a time, its rows counted
// by popcount. min <= max holds once seeded (or both are NaN), so a row
// below min is never above max and the kernels test max only when min
// holds.
type extrema[T int64 | float64 | int32] struct {
	min, max         T
	present, missing int64
}

// rangeScan runs the extrema kernel over every member row of m. A span
// of a masked column is folded as the words of its rows.
func rangeScan[T int64 | float64 | int32](m table.Membership, vals []T, miss *table.Bitset) extrema[T] {
	var e extrema[T]
	scanWordBatches(m,
		func(a, b int) {
			if miss == nil {
				e.span(vals[a:b])
				return
			}
			var buf [kernelBatch/64 + 1]uint64
			base, words := spanWords(a, b, &buf)
			e.words(vals, miss, base, words)
		},
		func(base int, words []uint64) { e.words(vals, miss, base, words) },
		func(rows []int32) { e.rows(vals, miss, rows) })
	return e
}

// spanWords returns rows [a, b), all of them members, as a word batch
// starting at base = a rounded down to a multiple of 64.
func spanWords(a, b int, buf *[kernelBatch/64 + 1]uint64) (base int, words []uint64) {
	base = a &^ 63
	words = buf[:(b-base+63)>>6]
	for k := range words {
		words[k] = ^uint64(0)
	}
	words[0] &= ^uint64(0) << uint(a-base)
	if n := b - base; n&63 != 0 {
		words[len(words)-1] &= 1<<uint(n&63) - 1
	}
	return base, words
}

// span folds the rows of vals, none of them missing, in one loop: 1.2-1.4×
// the word loop on unmasked full-membership legs of BenchmarkKernelRange.
func (e *extrema[T]) span(vals []T) {
	lo, hi := e.min, e.max
	if e.present == 0 {
		lo, hi = vals[0], vals[0]
	}
	for _, v := range vals {
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	e.min, e.max = lo, hi
	e.present += int64(len(vals))
}

// words folds the member rows of a word batch (see scanWordBatches). A
// word's rows are read through a 64-element array, which needs no bounds
// check; the column's last word, when partial, is copied into one.
func (e *extrema[T]) words(vals []T, miss *table.Bitset, base int, words []uint64) {
	lo, hi, present, missing := e.min, e.max, e.present, e.missing
	var tail [64]T
	for k, w := range words {
		row := base + k<<6
		if miss != nil {
			mw := miss.Words[row>>6] & w
			missing += int64(bits.OnesCount64(mw))
			w &^= mw
		}
		if w == 0 {
			continue
		}
		win := &tail
		if len(vals)-row >= 64 {
			win = (*[64]T)(vals[row : row+64])
		} else {
			copy(tail[:], vals[row:])
		}
		if present == 0 {
			lo = win[bits.TrailingZeros64(w)&63]
			hi = lo
		}
		present += int64(bits.OnesCount64(w))
		if w == ^uint64(0) {
			for _, v := range win {
				if v < lo {
					lo = v
				} else if v > hi {
					hi = v
				}
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			v := win[bits.TrailingZeros64(w)&63]
			if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
	}
	e.min, e.max, e.present, e.missing = lo, hi, present, missing
}

// rows folds gathered rows.
func (e *extrema[T]) rows(vals []T, miss *table.Bitset, rows []int32) {
	lo, hi, present, missing := e.min, e.max, e.present, e.missing
	for _, r := range rows {
		if miss != nil && miss.Get(int(r)) {
			missing++
			continue
		}
		v := vals[r]
		if present == 0 {
			lo, hi = v, v
		}
		present++
		if v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	e.min, e.max, e.present, e.missing = lo, hi, present, missing
}

// Merge implements Sketch.
func (s *RangeSketch) Merge(a, b Result) (Result, error) {
	ra, ok1 := a.(*DataRange)
	rb, ok2 := b.(*DataRange)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: range merge got %T and %T", a, b)
	}
	switch {
	case ra.Present == 0 && ra.Missing == 0:
		out := *rb
		return &out, nil
	case rb.Present == 0 && rb.Missing == 0:
		out := *ra
		return &out, nil
	}
	out := &DataRange{
		Kind:    ra.Kind,
		Present: ra.Present + rb.Present,
		Missing: ra.Missing + rb.Missing,
	}
	if ra.Kind == table.KindNone {
		out.Kind = rb.Kind
	}
	switch {
	case ra.Present == 0:
		out.Min, out.Max, out.MinS, out.MaxS = rb.Min, rb.Max, rb.MinS, rb.MaxS
	case rb.Present == 0:
		out.Min, out.Max, out.MinS, out.MaxS = ra.Min, ra.Max, ra.MinS, ra.MaxS
	default:
		out.Min, out.Max = math.Min(ra.Min, rb.Min), math.Max(ra.Max, rb.Max)
		out.MinS, out.MaxS = minStr(ra.MinS, rb.MinS), maxStr(ra.MaxS, rb.MaxS)
	}
	return out, nil
}

func minStr(a, b string) string {
	if a < b {
		return a
	}
	return b
}

func maxStr(a, b string) string {
	if a > b {
		return a
	}
	return b
}

// Moments is the summary of the moments vizketch (paper App. B.3): row
// and missing counts, extrema, and raw power sums up to order K, from
// which mean and variance derive. Shown when the user requests a column
// summary and used to pick chart ranges.
type Moments struct {
	Count, Missing int64
	Min, Max       float64
	// Sums[i] is the sum of x^(i+1) over non-missing rows.
	Sums []float64
}

// Mean returns the first moment, or NaN for an empty column.
func (m *Moments) Mean() float64 {
	if m.Count == 0 || len(m.Sums) < 1 {
		return math.NaN()
	}
	return m.Sums[0] / float64(m.Count)
}

// Variance returns the population variance, or NaN when undefined.
func (m *Moments) Variance() float64 {
	if m.Count == 0 || len(m.Sums) < 2 {
		return math.NaN()
	}
	mean := m.Mean()
	return m.Sums[1]/float64(m.Count) - mean*mean
}

// MomentsSketch computes Moments for one numeric column up to order K
// (K ≥ 2 recommended; mean and variance are the first two).
type MomentsSketch struct {
	Col string
	K   int
}

// Name implements Sketch.
func (s *MomentsSketch) Name() string { return fmt.Sprintf("moments(%s,k=%d)", s.Col, s.K) }

// CacheKey implements Cacheable.
func (s *MomentsSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *MomentsSketch) Zero() Result {
	k := s.K
	if k < 2 {
		k = 2
	}
	return &Moments{Sums: make([]float64, k)}
}

// Summarize implements Sketch.
func (s *MomentsSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	if !col.Kind().Numeric() {
		return nil, fmt.Errorf("sketch: moments over %v column %q", col.Kind(), s.Col)
	}
	out := s.Zero().(*Moments)
	switch c := col.(type) {
	case *table.IntColumn:
		momentsScan(t.Members(), c.Ints(), c.MissingMask(), out)
	case *table.DoubleColumn:
		momentsScan(t.Members(), c.Doubles(), c.MissingMask(), out)
	}
	return out, nil
}

// momentsScan folds every member row of a numeric column into out, in
// Iterate order.
func momentsScan[T int64 | float64](m table.Membership, vals []T, miss *table.Bitset, out *Moments) {
	m.Iterate(func(row int) bool {
		if miss.Get(row) {
			out.Missing++
			return true
		}
		v := float64(vals[row])
		if out.Count == 0 || v < out.Min {
			out.Min = v
		}
		if out.Count == 0 || v > out.Max {
			out.Max = v
		}
		out.Count++
		p := 1.0
		for i := range out.Sums {
			p *= v
			out.Sums[i] += p
		}
		return true
	})
}

// Merge implements Sketch.
func (s *MomentsSketch) Merge(a, b Result) (Result, error) {
	ma, ok1 := a.(*Moments)
	mb, ok2 := b.(*Moments)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: moments merge got %T and %T", a, b)
	}
	if len(ma.Sums) != len(mb.Sums) {
		return nil, fmt.Errorf("sketch: moments merge with %d vs %d orders", len(ma.Sums), len(mb.Sums))
	}
	out := &Moments{
		Count:   ma.Count + mb.Count,
		Missing: ma.Missing + mb.Missing,
		Sums:    make([]float64, len(ma.Sums)),
	}
	switch {
	case ma.Count == 0:
		out.Min, out.Max = mb.Min, mb.Max
	case mb.Count == 0:
		out.Min, out.Max = ma.Min, ma.Max
	default:
		out.Min, out.Max = math.Min(ma.Min, mb.Min), math.Max(ma.Max, mb.Max)
	}
	for i := range out.Sums {
		out.Sums[i] = ma.Sums[i] + mb.Sums[i]
	}
	return out, nil
}
