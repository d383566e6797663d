package sketch

import (
	"fmt"
	"math"

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

// Summarize implements Sketch. Stored columns scan their backing slices
// with typed min/max kernels; computed columns keep the row-at-a-time
// reference path.
func (s *RangeSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	out := &DataRange{Kind: col.Kind()}
	switch c := col.(type) {
	case *table.IntColumn:
		rangeScanInts(t.Members(), c, out)
		return out, nil
	case *table.DoubleColumn:
		rangeScanDoubles(t.Members(), c, out)
		return out, nil
	case *table.StringColumn:
		rangeScanStrings(t.Members(), c, out)
		return out, nil
	}
	if col.Kind().Numeric() {
		t.Members().Iterate(func(row int) bool {
			if col.Missing(row) {
				out.Missing++
				return true
			}
			v := col.Double(row)
			if out.Present == 0 || v < out.Min {
				out.Min = v
			}
			if out.Present == 0 || v > out.Max {
				out.Max = v
			}
			out.Present++
			return true
		})
		return out, nil
	}
	t.Members().Iterate(func(row int) bool {
		if col.Missing(row) {
			out.Missing++
			return true
		}
		v := col.Str(row)
		if out.Present == 0 || v < out.MinS {
			out.MinS = v
		}
		if out.Present == 0 || v > out.MaxS {
			out.MaxS = v
		}
		out.Present++
		return true
	})
	return out, nil
}

// rangeScanDoubles is the typed extrema kernel for double columns.
func rangeScanDoubles(m table.Membership, c *table.DoubleColumn, out *DataRange) {
	vals, miss := c.Doubles(), c.MissingMask()
	min, max := out.Min, out.Max
	present, missing := out.Present, out.Missing
	take := func(v float64) {
		if present == 0 || v < min {
			min = v
		}
		if present == 0 || v > max {
			max = v
		}
		present++
	}
	scanBatches(m,
		func(a, b int) {
			if miss == nil {
				for _, v := range vals[a:b] {
					take(v)
				}
				return
			}
			for k, v := range vals[a:b] {
				if miss.Get(a + k) {
					missing++
				} else {
					take(v)
				}
			}
		},
		func(rows []int32) {
			if miss == nil {
				for _, r := range rows {
					take(vals[r])
				}
				return
			}
			for _, r := range rows {
				if miss.Get(int(r)) {
					missing++
				} else {
					take(vals[r])
				}
			}
		})
	out.Min, out.Max, out.Present, out.Missing = min, max, present, missing
}

// rangeScanInts is the typed extrema kernel for int/date columns. int64
// order is preserved by the float64 conversion (it is monotone), so
// comparing raw values gives the same extrema as the reference path.
func rangeScanInts(m table.Membership, c *table.IntColumn, out *DataRange) {
	vals, miss := c.Ints(), c.MissingMask()
	var min, max int64
	present, missing := out.Present, out.Missing
	take := func(v int64) {
		if present == 0 || v < min {
			min = v
		}
		if present == 0 || v > max {
			max = v
		}
		present++
	}
	scanBatches(m,
		func(a, b int) {
			if miss == nil {
				for _, v := range vals[a:b] {
					take(v)
				}
				return
			}
			for k, v := range vals[a:b] {
				if miss.Get(a + k) {
					missing++
				} else {
					take(v)
				}
			}
		},
		func(rows []int32) {
			if miss == nil {
				for _, r := range rows {
					take(vals[r])
				}
				return
			}
			for _, r := range rows {
				if miss.Get(int(r)) {
					missing++
				} else {
					take(vals[r])
				}
			}
		})
	if present > out.Present {
		out.Min, out.Max = float64(min), float64(max)
	}
	out.Present, out.Missing = present, missing
}

// rangeScanStrings is the extrema kernel for dictionary columns: the
// dictionary is sorted, so code order equals lexicographic order.
func rangeScanStrings(m table.Membership, c *table.StringColumn, out *DataRange) {
	codes, miss := c.Codes(), c.MissingMask()
	var min, max int32
	present, missing := out.Present, out.Missing
	take := func(v int32) {
		if present == 0 || v < min {
			min = v
		}
		if present == 0 || v > max {
			max = v
		}
		present++
	}
	scanBatches(m,
		func(a, b int) {
			if miss == nil {
				for _, v := range codes[a:b] {
					take(v)
				}
				return
			}
			for k, v := range codes[a:b] {
				if miss.Get(a + k) {
					missing++
				} else {
					take(v)
				}
			}
		},
		func(rows []int32) {
			if miss == nil {
				for _, r := range rows {
					take(codes[r])
				}
				return
			}
			for _, r := range rows {
				if miss.Get(int(r)) {
					missing++
				} else {
					take(codes[r])
				}
			}
		})
	if present > out.Present {
		dict := c.Dict()
		out.MinS, out.MaxS = dict[min], dict[max]
	}
	out.Present, out.Missing = present, missing
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
	k := len(out.Sums)
	t.Members().Iterate(func(row int) bool {
		if col.Missing(row) {
			out.Missing++
			return true
		}
		v := col.Double(row)
		if out.Count == 0 || v < out.Min {
			out.Min = v
		}
		if out.Count == 0 || v > out.Max {
			out.Max = v
		}
		out.Count++
		p := 1.0
		for i := 0; i < k; i++ {
			p *= v
			out.Sums[i] += p
		}
		return true
	})
	return out, nil
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
