package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/table"
)

// BucketSpec describes histogram bucket geometry for one axis. It covers
// both numeric bucketing (equi-width intervals over [Min, Max]) and
// string bucketing (lexicographic ranges with explicit left boundaries,
// paper App. B.1 "equi-width buckets for string data"). One concrete
// type gives every summary that carries it one wire encoding.
type BucketSpec struct {
	// Kind selects the bucketing mode: any numeric kind uses Min/Max,
	// KindString uses Bounds.
	Kind table.Kind
	// Min and Max bound numeric buckets; the range [Min, Max] is divided
	// into Count equi-sized intervals, with Max landing in the last.
	Min, Max float64
	// Bounds are left boundaries of string buckets, sorted ascending;
	// bucket i covers [Bounds[i], Bounds[i+1]) and the last bucket is
	// unbounded above. When ExactValues is true each bucket holds exactly
	// one distinct value.
	Bounds []string
	// ExactValues marks string bucketing where every distinct value got
	// its own bucket (≤ maxStringBuckets distinct values).
	ExactValues bool
	// Count is the number of buckets.
	Count int
}

// NumericBuckets returns equi-width numeric bucket geometry.
func NumericBuckets(kind table.Kind, min, max float64, count int) BucketSpec {
	if count < 1 {
		count = 1
	}
	return BucketSpec{Kind: kind, Min: min, Max: max, Count: count}
}

// StringBucketsFromBounds returns string bucket geometry with the given
// sorted left boundaries.
func StringBucketsFromBounds(bounds []string, exact bool) BucketSpec {
	return BucketSpec{Kind: table.KindString, Bounds: bounds, ExactValues: exact, Count: len(bounds)}
}

// NumBuckets returns the bucket count.
func (s BucketSpec) NumBuckets() int { return s.Count }

// IndexValue maps a numeric value to its bucket, or -1 when outside the
// range (NaN is outside every range). Max maps into the last bucket so
// data-derived ranges lose no rows. The bucket is the division form
// Count*(v-Min)/(Max-Min); the batch kernels (numericIndex) compute the
// same expression, per row for doubles and wide int ranges, and once
// per integer of a small int range into a slot table (intSlotTable). An
// infinite bound (a column holding ±Inf, or a crafted spec) can make
// that quotient NaN; it lands in the last bucket too, never in a
// platform-defined integer conversion.
func (s BucketSpec) IndexValue(v float64) int {
	if s.Count <= 0 || !(v >= s.Min) || v > s.Max {
		return -1
	}
	if s.Max == s.Min {
		return 0
	}
	countF := float64(s.Count)
	x := countF * (v - s.Min) / (s.Max - s.Min)
	if !(x < countF) {
		return s.Count - 1
	}
	return int(x)
}

// IndexString maps a string to its bucket, or -1 when it sorts before
// the first boundary (or, for exact-value buckets, is not a boundary).
func (s BucketSpec) IndexString(v string) int {
	n := len(s.Bounds)
	if n == 0 {
		return -1
	}
	// Last boundary ≤ v.
	i := sort.SearchStrings(s.Bounds, v)
	if i < n && s.Bounds[i] == v {
		return i
	}
	i--
	if i < 0 {
		return -1
	}
	if s.ExactValues {
		return -1 // v is between two exact values: not a member
	}
	return i
}

// BatchIndexer is the one bucket kernel interface: it maps many rows to
// tally slots at once, or tallies them straight into a slot array. A
// slot is 0 for a missing row, 1 for an out-of-range value and bucket+2
// otherwise — the layout of a tally array [missing, outOfRange, bucket
// 0, ...], so a slot is a tally index and a kernel adds one to
// tallies[slot] per row with no branch. The Index methods fill a slot
// buffer, for scans that combine axes (gridScan); the Count methods fuse
// indexing with tallying, in each of the scan drivers' three forms (see
// batch.go), for the 1-D histogram.
//
// Implementations are specialized per column representation and read
// int64/float64 values or dictionary codes straight from the backing
// slice, so the inner loops run with no per-row closure or interface
// call. Dictionary codes, and int columns whose bucket range spans few
// integers, map to slots through a value→slot table;
// doubles and wide int ranges do the bucket arithmetic per row, with
// the spec's degenerate cases decided and its width computed once per
// kernel (numericIndex). A span
// is read unmasked: every row is indexed (or tallied) from the value
// stored under it, then only the set bits of the missing mask in the
// span are visited (eachMissing) and their slots rewritten (or their
// counts moved to slot 0). This relies
// on every stored cell being safe to index, missing rows included: any
// float64 (NaN, ±Inf) or int64 maps to a slot in range, and every
// dictionary code indexes the code→slot table (table.NewDictColumn). A
// word batch adds each word's missing members to slot 0 by popcount,
// then tallies its present members by a trailing-zeros walk, or by the
// span loop when all 64 rows are present.
type BatchIndexer interface {
	// IndexSpan fills out[k] with the slot of row start+k for every
	// k in [0, end-start). len(out) must be at least end-start.
	IndexSpan(start, end int, out []int32)
	// IndexRows fills out[k] with the slot of rows[k]. len(out) must
	// be at least len(rows).
	IndexRows(rows []int32, out []int32)
	// CountSpan adds one to tallies[slot] for every row in [start, end).
	CountSpan(start, end int, tallies []int64)
	// CountWords does the same for the member rows of a word batch:
	// row base+64k+j is a member when bit j of words[k] is set.
	CountWords(base int, words []uint64, tallies []int64)
	// CountRows does the same for every row of rows.
	CountRows(rows []int32, tallies []int64)
}

// numericIndex is the bucket arithmetic of IndexValue with the spec
// decided once per kernel: the width Max-Min is hoisted, and the two
// degenerate specs are mapped onto the general form. A spec with no
// buckets gets a NaN min, which no value passes; a spec with Max == Min
// gets countF 1, so its one in-range value, whose quotient is 0/0 (or
// Inf-Inf over 0) = NaN, falls to the last-bucket test and lands in
// bucket 0. Every slot is therefore the divide's, computed from the
// same operands, and FuzzSlotKernels holds each kernel to IndexValue.
// The four fields fit in registers through a kernel loop.
type numericIndex struct {
	min, max, width, countF float64
}

func newNumericIndex(s BucketSpec) numericIndex {
	p := numericIndex{min: s.Min, max: s.Max, width: s.Max - s.Min, countF: float64(s.Count)}
	switch {
	case s.Count <= 0:
		p.min = math.NaN()
	case s.Max == s.Min:
		p.countF = 1
	}
	return p
}

// slot is IndexValue plus two. Both comparisons are inverted so NaN
// fails them: the first rejects NaN rows along with below-range values,
// the last sends a NaN quotient (infinite bounds, or Max == Min) to the
// last bucket. Either NaN would otherwise reach the int conversion,
// whose result is platform-defined and lands outside the tally array.
// Every float64 therefore maps into [1, Count+2). The divide stays: a
// reciprocal multiply needs a correction table or a divide fallback to
// give the divide's slot at bucket edges, and both forms measured
// slower (ROADMAP item 22).
func (p numericIndex) slot(v float64) int32 {
	if !(v >= p.min) || v > p.max {
		return 1
	}
	x := p.countF * (v - p.min) / p.width
	if !(x < p.countF) {
		return int32(p.countF) + 1
	}
	return int32(x) + 2
}

// slotInt is slot for an int value outside a slot table
// (intTableBatchIndexer). It stays out of line: with its arithmetic inlined
// on the cold branch the table loops measured 5-25 % slower.
//
//go:noinline
func (p *numericIndex) slotInt(v int64) int32 { return p.slot(float64(v)) }

// eachMissing calls visit(k) for every row start+k in [start, end) that
// miss marks missing, reading the mask a word at a time. A nil mask has
// no missing rows.
func eachMissing(miss *table.Bitset, start, end int, visit func(k int)) {
	if miss == nil {
		return
	}
	for wi := start >> 6; wi<<6 < end; wi++ {
		w := miss.Words[wi]
		base := wi << 6
		if base < start {
			w &= ^uint64(0) << uint(start-base)
		}
		if end-base < 64 {
			w &= 1<<uint(end-base) - 1
		}
		for ; w != 0; w &= w - 1 {
			visit(base + bits.TrailingZeros64(w) - start)
		}
	}
}

// numBatchIndexer buckets an IntColumn (T int64) or a DoubleColumn (T
// float64) through its backing slice, dividing per row.
type numBatchIndexer[T int64 | float64] struct {
	vals []T
	miss *table.Bitset // nil when no rows are missing
	p    numericIndex
}

func (x *numBatchIndexer[T]) IndexSpan(start, end int, out []int32) {
	vals, p := x.vals[start:end], x.p
	out = out[:len(vals)]
	for k, v := range vals {
		out[k] = p.slot(float64(v))
	}
	eachMissing(x.miss, start, end, func(k int) { out[k] = 0 })
}

func (x *numBatchIndexer[T]) IndexRows(rows []int32, out []int32) {
	vals, miss, p := x.vals, x.miss, x.p
	if miss == nil {
		for k, r := range rows {
			out[k] = p.slot(float64(vals[r]))
		}
		return
	}
	for k, r := range rows {
		if miss.Get(int(r)) {
			out[k] = 0
		} else {
			out[k] = p.slot(float64(vals[r]))
		}
	}
}

// stringBatchIndexer buckets a StringColumn through its dictionary codes
// and a precomputed code→slot table.
type stringBatchIndexer struct {
	codes    []int32
	codeSlot []int32
	miss     *table.Bitset
}

func (x *stringBatchIndexer) IndexSpan(start, end int, out []int32) {
	codes := x.codes[start:end]
	out = out[:len(codes)]
	for k, c := range codes {
		out[k] = x.codeSlot[c]
	}
	eachMissing(x.miss, start, end, func(k int) { out[k] = 0 })
}

func (x *stringBatchIndexer) IndexRows(rows []int32, out []int32) {
	if x.miss == nil {
		for k, r := range rows {
			out[k] = x.codeSlot[x.codes[r]]
		}
		return
	}
	for k, r := range rows {
		if x.miss.Get(int(r)) {
			out[k] = 0
		} else {
			out[k] = x.codeSlot[x.codes[r]]
		}
	}
}

// intTableBatchIndexer buckets an IntColumn over a small bucket range
// through a value→slot table, as stringBatchIndexer does dictionary
// codes: a value v in [lo, lo+len(tab)) has slot tab[v-lo], one load per
// row instead of the bucket arithmetic. Every entry is computed by the
// rule the row path applies to that value (intSlotTable), so the two
// agree by construction. It is a type of its own rather than one generic
// table kernel shared with dictionary codes: the shared form read the
// string legs of BenchmarkKernelHistExact at 760-880 Mrows/s against
// 790-930 for stringBatchIndexer, and dictionary codes never leave
// their table, so they need none of the bounds test below.
//
// The kernel loops test the table bound themselves and leave the inner
// loop for a value outside the table, which numericIndex.slotInt buckets
// out of line before the loop resumes. A call inside the inner loop, even
// on a branch never taken, makes the compiler spill the loop state on
// every row (≈0.6×). Gathered rows of an unmasked column run a loop with
// no mask test, as the other kernels do.
type intTableBatchIndexer struct {
	vals []int64
	miss *table.Bitset
	tab  []int32
	lo   int64
	p    numericIndex // bucket arithmetic for values outside tab
}

// slot is the slot of one value: one unsigned compare, which also
// rejects a v-lo that wrapped around, then a load.
func (x *intTableBatchIndexer) slot(v int64) int32 {
	if i := uint64(v - x.lo); i < uint64(len(x.tab)) {
		return x.tab[i]
	}
	return x.p.slotInt(v)
}

func (x *intTableBatchIndexer) IndexSpan(start, end int, out []int32) {
	vals, tab, lo := x.vals[start:end], x.tab, x.lo
	out = out[:len(vals)]
	for k := 0; k < len(vals); k++ {
		for ; k < len(vals); k++ {
			i := uint64(vals[k] - lo)
			if i >= uint64(len(tab)) {
				break
			}
			out[k] = tab[i]
		}
		if k < len(vals) {
			out[k] = x.p.slotInt(vals[k])
		}
	}
	eachMissing(x.miss, start, end, func(k int) { out[k] = 0 })
}

func (x *intTableBatchIndexer) IndexRows(rows []int32, out []int32) {
	vals, tab, lo, miss := x.vals, x.tab, x.lo, x.miss
	out = out[:len(rows)]
	for k := 0; k < len(rows); k++ {
		if miss == nil {
			for ; k < len(rows); k++ {
				i := uint64(vals[rows[k]] - lo)
				if i >= uint64(len(tab)) {
					break
				}
				out[k] = tab[i]
			}
		} else {
			for ; k < len(rows); k++ {
				r := rows[k]
				if miss.Get(int(r)) {
					out[k] = 0
					continue
				}
				i := uint64(vals[r] - lo)
				if i >= uint64(len(tab)) {
					break
				}
				out[k] = tab[i]
			}
		}
		if k < len(rows) {
			out[k] = x.p.slotInt(vals[rows[k]])
		}
	}
}

// presentWord returns the members of w at word index wi that miss does
// not mark, after adding the rest to the missing tally.
func presentWord(miss *table.Bitset, wi int, w uint64, tallies []int64) uint64 {
	if miss == nil {
		return w
	}
	mw := miss.Words[wi] & w
	tallies[0] += int64(bits.OnesCount64(mw))
	return w &^ mw
}

func (x *numBatchIndexer[T]) CountSpan(start, end int, tallies []int64) {
	vals, p := x.vals[start:end], x.p
	for _, v := range vals {
		tallies[p.slot(float64(v))]++
	}
	eachMissing(x.miss, start, end, func(k int) {
		tallies[p.slot(float64(vals[k]))]--
		tallies[0]++
	})
}

func (x *numBatchIndexer[T]) CountWords(base int, words []uint64, tallies []int64) {
	vals, miss, p := x.vals, x.miss, x.p
	for k, w := range words {
		row := base + k<<6
		w = presentWord(miss, row>>6, w, tallies)
		if w == ^uint64(0) {
			for _, v := range vals[row : row+64] {
				tallies[p.slot(float64(v))]++
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			tallies[p.slot(float64(vals[row+bits.TrailingZeros64(w)]))]++
		}
	}
}

func (x *numBatchIndexer[T]) CountRows(rows []int32, tallies []int64) {
	vals, miss, p := x.vals, x.miss, x.p
	if miss == nil {
		for _, r := range rows {
			tallies[p.slot(float64(vals[r]))]++
		}
		return
	}
	for _, r := range rows {
		if miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[p.slot(float64(vals[r]))]++
		}
	}
}

func (x *stringBatchIndexer) CountSpan(start, end int, tallies []int64) {
	codes := x.codes[start:end]
	for _, c := range codes {
		tallies[x.codeSlot[c]]++
	}
	eachMissing(x.miss, start, end, func(k int) {
		tallies[x.codeSlot[codes[k]]]--
		tallies[0]++
	})
}

func (x *stringBatchIndexer) CountWords(base int, words []uint64, tallies []int64) {
	codes, codeSlot, miss := x.codes, x.codeSlot, x.miss
	for k, w := range words {
		row := base + k<<6
		w = presentWord(miss, row>>6, w, tallies)
		if w == ^uint64(0) {
			for _, c := range codes[row : row+64] {
				tallies[codeSlot[c]]++
			}
			continue
		}
		for ; w != 0; w &= w - 1 {
			tallies[codeSlot[codes[row+bits.TrailingZeros64(w)]]]++
		}
	}
}

func (x *stringBatchIndexer) CountRows(rows []int32, tallies []int64) {
	if x.miss == nil {
		for _, r := range rows {
			tallies[x.codeSlot[x.codes[r]]]++
		}
		return
	}
	for _, r := range rows {
		if x.miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[x.codeSlot[x.codes[r]]]++
		}
	}
}

func (x *intTableBatchIndexer) CountSpan(start, end int, tallies []int64) {
	vals, tab, lo := x.vals[start:end], x.tab, x.lo
	for k := 0; k < len(vals); k++ {
		for ; k < len(vals); k++ {
			i := uint64(vals[k] - lo)
			if i >= uint64(len(tab)) {
				break
			}
			tallies[tab[i]]++
		}
		if k < len(vals) {
			tallies[x.p.slotInt(vals[k])]++
		}
	}
	eachMissing(x.miss, start, end, func(k int) {
		tallies[x.slot(vals[k])]--
		tallies[0]++
	})
}

// CountWords leaves the walk for a value outside the table, as the
// other loops leave theirs, and counts a full word as a span.
func (x *intTableBatchIndexer) CountWords(base int, words []uint64, tallies []int64) {
	vals, tab, lo, miss := x.vals, x.tab, x.lo, x.miss
	for k, w := range words {
		row := base + k<<6
		if w == ^uint64(0) {
			x.CountSpan(row, row+64, tallies)
			continue
		}
		w = presentWord(miss, row>>6, w, tallies)
		for w != 0 {
			for ; w != 0; w &= w - 1 {
				i := uint64(vals[row+bits.TrailingZeros64(w)] - lo)
				if i >= uint64(len(tab)) {
					break
				}
				tallies[tab[i]]++
			}
			if w != 0 {
				tallies[x.p.slotInt(vals[row+bits.TrailingZeros64(w)])]++
				w &= w - 1
			}
		}
	}
}

func (x *intTableBatchIndexer) CountRows(rows []int32, tallies []int64) {
	vals, tab, lo, miss := x.vals, x.tab, x.lo, x.miss
	for k := 0; k < len(rows); k++ {
		if miss == nil {
			for ; k < len(rows); k++ {
				i := uint64(vals[rows[k]] - lo)
				if i >= uint64(len(tab)) {
					break
				}
				tallies[tab[i]]++
			}
		} else {
			for ; k < len(rows); k++ {
				r := rows[k]
				if miss.Get(int(r)) {
					tallies[0]++
					continue
				}
				i := uint64(vals[r] - lo)
				if i >= uint64(len(tab)) {
					break
				}
				tallies[tab[i]]++
			}
		}
		if k < len(rows) {
			tallies[x.p.slotInt(vals[rows[k]])]++
		}
	}
}

// codeSlotTable precomputes the code → slot mapping for a dictionary
// column (one IndexString per distinct value), so a row costs one load;
// intSlotTable does the same for the integers of a small int range.
// An empty dictionary belongs to a column whose every row is missing and
// holds code 0 (table.NewDictColumn); the table gets one entry, the
// missing slot, so the unmasked pass can read it.
func (s BucketSpec) codeSlotTable(sc *table.StringColumn) []int32 {
	dict := sc.Dict()
	codeSlot := make([]int32, max(len(dict), 1))
	for c, v := range dict {
		codeSlot[c] = int32(s.IndexString(v) + 2)
	}
	return codeSlot
}

// intTableMax is the widest integer bucket range that gets a slot table.
// It is read off BenchmarkKernelIntDomain at 2²⁰ rows (uniform values,
// 50 buckets, table built per scan vs per-row divide, interleaved) on a
// 2-vCPU Intel Xeon cloud host (2 MiB L2 per core): the table is
// 1.9-3.4× up to 2¹² values, 1.3-1.5× at 2¹⁶ (256 KiB of slots),
// 1.1-1.2× at 2¹⁷, and the two lines cross at 2¹⁸; past it the table
// loses up to 4×.
const intTableMax = 1 << 16

// intTableRowsPerValue is how many rows a column needs per table entry:
// building the table costs one divide per entry, so a table as long as
// the column loses. It is read off the same benchmark and host at 4000
// rows (an ingest batch) and 125000 (a flights partition): at span/rows
// = 1/8 the table is 1.5-1.7×, at 1/4 1.2-1.3×, the lines cross near
// 1/2 (0.9-1.0×), and at 1 the table runs at 0.6-0.7×.
const intTableRowsPerValue = 4

// intSlotTable gives an int column of n stored values the dictionary
// path when the integers in [Min, Max] are few: it returns lo =
// ceil(Min) and tab[i] = slot(lo+i) for every integer up to floor(Max),
// or ok false when the range is empty, wider than intTableMax or than
// n/intTableRowsPerValue, or not exactly representable (|bound| > 2⁵³),
// where the per-row divide is cheaper or the table would not be exact.
// Values outside the table keep the arithmetic (intTableBatchIndexer):
// past ±2⁵³ an int outside [ceil(Min), floor(Max)] can still round into
// the range.
func (s BucketSpec) intSlotTable(p numericIndex, n int) (lo int64, tab []int32, ok bool) {
	const exact = 1 << 53
	if s.Count <= 0 || !(s.Min <= s.Max) || !(s.Min >= -exact) || !(s.Max <= exact) {
		return 0, nil, false
	}
	lo = int64(math.Ceil(s.Min))
	span := int64(math.Floor(s.Max)) - lo + 1
	if span < 1 || span > intTableMax || span*intTableRowsPerValue > int64(n) {
		return 0, nil, false
	}
	tab = make([]int32, span)
	for i := range tab {
		tab[i] = p.slot(float64(lo + int64(i)))
	}
	return lo, tab, true
}

// BatchIndexer returns the batch slot kernel bound to a column: the
// slot of a row is 0 when it is missing, else IndexValue (numeric
// specs) or IndexString (string specs) of its value plus two, with
// dispatch amortized over whole batches. Dictionary columns, and int
// columns whose bucket range spans few integers (intSlotTable), index
// through a value→slot table; other numeric columns divide per row.
// Numeric specs bucket int, date and double columns, string specs
// dictionary columns, and any other pairing is an error.
func (s BucketSpec) BatchIndexer(col table.Column) (BatchIndexer, error) {
	switch c := col.(type) {
	case *table.IntColumn:
		if s.Kind.Numeric() {
			p := newNumericIndex(s)
			if lo, tab, ok := s.intSlotTable(p, len(c.Ints())); ok {
				return &intTableBatchIndexer{vals: c.Ints(), miss: c.MissingMask(), tab: tab, lo: lo, p: p}, nil
			}
			return &numBatchIndexer[int64]{vals: c.Ints(), miss: c.MissingMask(), p: p}, nil
		}
	case *table.DoubleColumn:
		if s.Kind.Numeric() {
			return &numBatchIndexer[float64]{vals: c.Doubles(), miss: c.MissingMask(), p: newNumericIndex(s)}, nil
		}
	case *table.StringColumn:
		if s.Kind == table.KindString {
			return &stringBatchIndexer{codes: c.Codes(), codeSlot: s.codeSlotTable(c), miss: c.MissingMask()}, nil
		}
	}
	return nil, fmt.Errorf("sketch: %v buckets over %v column", s.Kind, col.Kind())
}

// batchIndexer returns the bucket kernel of spec over column col of t.
func batchIndexer(t *table.Table, col string, spec BucketSpec) (BatchIndexer, error) {
	c, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	return spec.BatchIndexer(c)
}

// LabelOf renders the label of bucket i for axes and legends.
func (s BucketSpec) LabelOf(i int) string {
	if s.Kind == table.KindString {
		if i < 0 || i >= len(s.Bounds) {
			return ""
		}
		if s.ExactValues {
			return s.Bounds[i]
		}
		if i+1 < len(s.Bounds) {
			return fmt.Sprintf("[%s, %s)", s.Bounds[i], s.Bounds[i+1])
		}
		return fmt.Sprintf("[%s, …)", s.Bounds[i])
	}
	w := (s.Max - s.Min) / float64(s.Count)
	return fmt.Sprintf("[%.4g, %.4g)", s.Min+float64(i)*w, s.Min+float64(i+1)*w)
}

// String renders the geometry for sketch names and cache keys. It is a
// cache key, so it names every field that changes an answer: the kind,
// the exact-values flag, and each bound quoted (so no bound can forge a
// separator).
func (s BucketSpec) String() string {
	size := 32
	for _, v := range s.Bounds {
		size += len(v) + 3
	}
	b := append(make([]byte, 0, size), s.Kind.String()...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(s.Count), 10)
	if s.Kind != table.KindString {
		b = append(b, ':')
		b = strconv.AppendFloat(b, s.Min, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, s.Max, 'g', -1, 64)
		return string(append(b, ']'))
	}
	b = append(b, " exact="...)
	b = strconv.AppendBool(b, s.ExactValues)
	sep := byte(':')
	for _, v := range s.Bounds {
		b = strconv.AppendQuote(append(b, sep), v)
		sep = ','
	}
	return string(append(b, ']'))
}

// maxStringBuckets caps string histogram bars (paper App. B.1: "the
// number of bars is limited to 50").
const maxStringBuckets = 50

// StringBucketsFromDistinct builds string bucket geometry from the full
// sorted list of distinct values: one bucket per value when they fit,
// otherwise maxBuckets quantile boundaries over the distinct values.
func StringBucketsFromDistinct(distinct []string, maxBuckets int) BucketSpec {
	if maxBuckets <= 0 || maxBuckets > maxStringBuckets {
		maxBuckets = maxStringBuckets
	}
	if len(distinct) <= maxBuckets {
		return StringBucketsFromBounds(distinct, true)
	}
	bounds := make([]string, maxBuckets)
	for i := 0; i < maxBuckets; i++ {
		bounds[i] = distinct[i*len(distinct)/maxBuckets]
	}
	return StringBucketsFromBounds(dedupSorted(bounds), false)
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
