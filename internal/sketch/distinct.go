package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/table"
)

// HLL is a HyperLogLog summary (Flajolet et al.), the approximate
// distinct-count vizketch of the paper (App. B.3: "Number of distinct
// elements … computed approximatively using the HyperLogLog sketch").
// Registers merge by pointwise max, which makes it mergeable with no
// accuracy loss.
type HLL struct {
	// Precision p gives m = 2^p registers and standard error ≈ 1.04/√m.
	Precision uint8
	Registers []byte
}

// DefaultHLLPrecision gives 2^12 = 4096 registers (~1.6 % standard
// error), a good trade between summary size and accuracy for axis
// labeling decisions.
const DefaultHLLPrecision = 12

// Add inserts a pre-hashed value.
func (h *HLL) Add(hash uint64) {
	p := uint(h.Precision)
	idx := hash >> (64 - p)
	// Rank of the first set bit in the remaining 64-p bits.
	rest := hash<<p | 1<<(p-1) // guard bit keeps rank ≤ 64-p+1
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.Registers[idx] {
		h.Registers[idx] = rank
	}
}

// Estimate returns the estimated number of distinct values, with the
// standard small-range (linear counting) correction.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.Registers))
	var sum float64
	zeros := 0
	for _, r := range h.Registers {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// DistinctCountSketch estimates the number of distinct values in a
// column. It is deterministic (value hashing is seed-free so partitions
// agree), hence cacheable.
type DistinctCountSketch struct {
	Col       string
	Precision uint8 // 0 means DefaultHLLPrecision
}

func (s *DistinctCountSketch) precision() uint8 {
	if s.Precision == 0 {
		return DefaultHLLPrecision
	}
	return s.Precision
}

// Name implements Sketch.
func (s *DistinctCountSketch) Name() string {
	return fmt.Sprintf("distinct(%s,p=%d)", s.Col, s.precision())
}

// CacheKey implements Cacheable.
func (s *DistinctCountSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *DistinctCountSketch) Zero() Result {
	p := s.precision()
	return &HLL{Precision: p, Registers: make([]byte, 1<<p)}
}

// Summarize implements Sketch. Numeric columns hash their backing slices
// with typed batch kernels; string columns hash each distinct dictionary
// value once and rows insert the precomputed hash.
func (s *DistinctCountSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	out := s.Zero().(*HLL)
	switch c := col.(type) {
	case *table.StringColumn:
		hashes := make([]uint64, c.DictSize())
		for i, v := range c.Dict() {
			hashes[i] = hashString(v)
		}
		codes, miss := c.Codes(), c.MissingMask()
		scanBatches(t.Members(),
			func(a, b int) {
				if miss == nil {
					for _, code := range codes[a:b] {
						out.Add(hashes[code])
					}
					return
				}
				for k, code := range codes[a:b] {
					if !miss.Get(a + k) {
						out.Add(hashes[code])
					}
				}
			},
			func(rows []int32) {
				if miss == nil {
					for _, r := range rows {
						out.Add(hashes[codes[r]])
					}
					return
				}
				for _, r := range rows {
					if !miss.Get(int(r)) {
						out.Add(hashes[codes[r]])
					}
				}
			})
	case *table.IntColumn:
		vals, miss := c.Ints(), c.MissingMask()
		scanBatches(t.Members(),
			func(a, b int) {
				if miss == nil {
					for _, v := range vals[a:b] {
						out.Add(hashValueBits(uint64(v)))
					}
					return
				}
				for k, v := range vals[a:b] {
					if !miss.Get(a + k) {
						out.Add(hashValueBits(uint64(v)))
					}
				}
			},
			func(rows []int32) {
				if miss == nil {
					for _, r := range rows {
						out.Add(hashValueBits(uint64(vals[r])))
					}
					return
				}
				for _, r := range rows {
					if !miss.Get(int(r)) {
						out.Add(hashValueBits(uint64(vals[r])))
					}
				}
			})
	case *table.DoubleColumn:
		vals, miss := c.Doubles(), c.MissingMask()
		scanBatches(t.Members(),
			func(a, b int) {
				if miss == nil {
					for _, v := range vals[a:b] {
						out.Add(hashValueBits(math.Float64bits(v)))
					}
					return
				}
				for k, v := range vals[a:b] {
					if !miss.Get(a + k) {
						out.Add(hashValueBits(math.Float64bits(v)))
					}
				}
			},
			func(rows []int32) {
				if miss == nil {
					for _, r := range rows {
						out.Add(hashValueBits(math.Float64bits(vals[r])))
					}
					return
				}
				for _, r := range rows {
					if !miss.Get(int(r)) {
						out.Add(hashValueBits(math.Float64bits(vals[r])))
					}
				}
			})
	}
	return out, nil
}

// Merge implements Sketch.
func (s *DistinctCountSketch) Merge(a, b Result) (Result, error) {
	ha, ok1 := a.(*HLL)
	hb, ok2 := b.(*HLL)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: distinct merge got %T and %T", a, b)
	}
	if len(ha.Registers) != len(hb.Registers) {
		return nil, fmt.Errorf("sketch: distinct merge with %d vs %d registers", len(ha.Registers), len(hb.Registers))
	}
	out := &HLL{Precision: ha.Precision, Registers: make([]byte, len(ha.Registers))}
	for i := range out.Registers {
		if ha.Registers[i] >= hb.Registers[i] {
			out.Registers[i] = ha.Registers[i]
		} else {
			out.Registers[i] = hb.Registers[i]
		}
	}
	return out, nil
}
