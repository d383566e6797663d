package sketch

import (
	"fmt"
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
// same expression. An infinite bound (a column holding ±Inf, or a
// crafted spec) can make that quotient NaN; it lands in the last bucket
// too, never in a platform-defined integer conversion.
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

// Indexer returns a row-to-bucket function bound to a column, choosing
// the numeric or string path once per partition rather than per row.
// Missing rows map to -2; out-of-range rows to -1.
func (s BucketSpec) Indexer(col table.Column) (func(row int) int, error) {
	switch {
	case s.Kind.Numeric():
		if !col.Kind().Numeric() {
			return nil, fmt.Errorf("sketch: numeric buckets over %v column", col.Kind())
		}
		return func(row int) int {
			if col.Missing(row) {
				return -2
			}
			return s.IndexValue(col.Double(row))
		}, nil
	case s.Kind == table.KindString:
		sc, ok := col.(*table.StringColumn)
		if !ok {
			// Computed string columns take the generic path.
			return func(row int) int {
				if col.Missing(row) {
					return -2
				}
				return s.IndexString(col.Str(row))
			}, nil
		}
		// Dictionary fast path: precompute code -> slot.
		codeSlot := s.codeSlotTable(sc)
		return func(row int) int {
			if sc.Missing(row) {
				return -2
			}
			return int(codeSlot[sc.Code(row)]) - 2
		}, nil
	default:
		return nil, fmt.Errorf("sketch: bucket spec kind %v unsupported", s.Kind)
	}
}

// BatchIndexer maps many rows to tally slots at once. IndexSpan covers
// a contiguous physical row range; IndexRows a gathered index list. A
// slot is the Indexer code plus two: 0 for a missing row, 1 for an
// out-of-range value, bucket+2 otherwise — the layout of a tally array
// [missing, outOfRange, bucket 0, ...], so a slot is a tally index.
//
// Implementations are specialized per column representation and read
// int64/float64 values or dictionary codes straight from the backing
// slice, so the inner loops run with no per-row closure or interface
// call. A span is read unmasked: every row is indexed from the value
// stored under it, then only the set bits of the missing mask in the
// span are visited (eachMissing) and their slots rewritten. This relies
// on every stored cell being safe to index, missing rows included: any
// float64 (NaN, ±Inf) or int64 maps to a slot in range, and every
// dictionary code indexes the code→slot table (table.NewDictColumn).
// ComputedColumn falls back to the row-at-a-time Indexer.
type BatchIndexer interface {
	// IndexSpan fills out[k] with the slot of row start+k for every
	// k in [0, end-start). len(out) must be at least end-start.
	IndexSpan(start, end int, out []int32)
	// IndexRows fills out[k] with the slot of rows[k]. len(out) must
	// be at least len(rows).
	IndexRows(rows []int32, out []int32)
}

// numericIndex is the bucket arithmetic of IndexValue with the spec
// fields hoisted into locals.
type numericIndex struct {
	min, max, countF float64
	count            int32
}

func newNumericIndex(s BucketSpec) numericIndex {
	return numericIndex{min: s.Min, max: s.Max, countF: float64(s.Count), count: int32(s.Count)}
}

// slot is IndexValue plus two, with the spec fields in registers. Both
// comparisons are inverted so NaN fails them: the first rejects NaN rows
// along with below-range values, the last sends a NaN quotient (infinite
// bounds) to the last bucket. Either NaN would otherwise reach the int
// conversion, whose result is platform-defined and lands outside the
// tally array. Every float64 therefore maps into [1, count+2).
func (p numericIndex) slot(v float64) int32 {
	if p.count <= 0 || !(v >= p.min) || v > p.max {
		return 1
	}
	if p.max == p.min {
		return 2
	}
	x := p.countF * (v - p.min) / (p.max - p.min)
	if !(x < p.countF) {
		return p.count + 1
	}
	return int32(x) + 2
}

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

// intBatchIndexer buckets an IntColumn through its backing slice.
type intBatchIndexer struct {
	vals []int64
	miss *table.Bitset // nil when no rows are missing
	p    numericIndex
}

func (x *intBatchIndexer) IndexSpan(start, end int, out []int32) {
	vals, p := x.vals[start:end], x.p
	out = out[:len(vals)]
	for k, v := range vals {
		out[k] = p.slot(float64(v))
	}
	eachMissing(x.miss, start, end, func(k int) { out[k] = 0 })
}

func (x *intBatchIndexer) IndexRows(rows []int32, out []int32) {
	if x.miss == nil {
		for k, r := range rows {
			out[k] = x.p.slot(float64(x.vals[r]))
		}
		return
	}
	for k, r := range rows {
		if x.miss.Get(int(r)) {
			out[k] = 0
		} else {
			out[k] = x.p.slot(float64(x.vals[r]))
		}
	}
}

// doubleBatchIndexer buckets a DoubleColumn through its backing slice.
type doubleBatchIndexer struct {
	vals []float64
	miss *table.Bitset
	p    numericIndex
}

func (x *doubleBatchIndexer) IndexSpan(start, end int, out []int32) {
	vals, p := x.vals[start:end], x.p
	out = out[:len(vals)]
	for k, v := range vals {
		out[k] = p.slot(v)
	}
	eachMissing(x.miss, start, end, func(k int) { out[k] = 0 })
}

func (x *doubleBatchIndexer) IndexRows(rows []int32, out []int32) {
	if x.miss == nil {
		for k, r := range rows {
			out[k] = x.p.slot(x.vals[r])
		}
		return
	}
	for k, r := range rows {
		if x.miss.Get(int(r)) {
			out[k] = 0
		} else {
			out[k] = x.p.slot(x.vals[r])
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

// bucketCounter is an optional BatchIndexer extension that fuses slot
// indexing with histogram tallying, skipping the intermediate slot
// buffer: kernels add one to tallies[slot] per row (see bucketTally).
// A span is tallied unmasked and then patched: each missing row moves
// its count from the slot of its stored value to slot 0.
type bucketCounter interface {
	CountSpan(start, end int, tallies []int64)
	CountRows(rows []int32, tallies []int64)
}

func (x *intBatchIndexer) CountSpan(start, end int, tallies []int64) {
	vals, p := x.vals[start:end], x.p
	for _, v := range vals {
		tallies[p.slot(float64(v))]++
	}
	eachMissing(x.miss, start, end, func(k int) {
		tallies[p.slot(float64(vals[k]))]--
		tallies[0]++
	})
}

func (x *intBatchIndexer) CountRows(rows []int32, tallies []int64) {
	if x.miss == nil {
		for _, r := range rows {
			tallies[x.p.slot(float64(x.vals[r]))]++
		}
		return
	}
	for _, r := range rows {
		if x.miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[x.p.slot(float64(x.vals[r]))]++
		}
	}
}

func (x *doubleBatchIndexer) CountSpan(start, end int, tallies []int64) {
	vals, p := x.vals[start:end], x.p
	for _, v := range vals {
		tallies[p.slot(v)]++
	}
	eachMissing(x.miss, start, end, func(k int) {
		tallies[p.slot(vals[k])]--
		tallies[0]++
	})
}

func (x *doubleBatchIndexer) CountRows(rows []int32, tallies []int64) {
	if x.miss == nil {
		for _, r := range rows {
			tallies[x.p.slot(x.vals[r])]++
		}
		return
	}
	for _, r := range rows {
		if x.miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[x.p.slot(x.vals[r])]++
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

// scalarBatchIndexer adapts the row-at-a-time Indexer for columns with
// no backing storage (ComputedColumn).
type scalarBatchIndexer struct {
	idx func(row int) int
}

func (x *scalarBatchIndexer) IndexSpan(start, end int, out []int32) {
	for k := 0; k < end-start; k++ {
		out[k] = int32(x.idx(start+k) + 2)
	}
}

func (x *scalarBatchIndexer) IndexRows(rows []int32, out []int32) {
	for k, r := range rows {
		out[k] = int32(x.idx(int(r)) + 2)
	}
}

// codeSlotTable precomputes the code → slot mapping for a dictionary
// column (one IndexString per distinct value). An empty dictionary
// belongs to a column whose every row is missing and holds code 0
// (table.NewDictColumn); the table gets one entry, the missing slot, so
// the unmasked pass can read it.
func (s BucketSpec) codeSlotTable(sc *table.StringColumn) []int32 {
	dict := sc.Dict()
	codeSlot := make([]int32, max(len(dict), 1))
	for c, v := range dict {
		codeSlot[c] = int32(s.IndexString(v) + 2)
	}
	return codeSlot
}

// BatchIndexer returns the batch slot kernel bound to a column. It
// computes exactly what Indexer computes row by row, plus two,
// amortizing dispatch over whole batches.
func (s BucketSpec) BatchIndexer(col table.Column) (BatchIndexer, error) {
	switch {
	case s.Kind.Numeric():
		if !col.Kind().Numeric() {
			return nil, fmt.Errorf("sketch: numeric buckets over %v column", col.Kind())
		}
		switch c := col.(type) {
		case *table.IntColumn:
			return &intBatchIndexer{vals: c.Ints(), miss: c.MissingMask(), p: newNumericIndex(s)}, nil
		case *table.DoubleColumn:
			return &doubleBatchIndexer{vals: c.Doubles(), miss: c.MissingMask(), p: newNumericIndex(s)}, nil
		}
	case s.Kind == table.KindString:
		if sc, ok := col.(*table.StringColumn); ok {
			return &stringBatchIndexer{codes: sc.Codes(), codeSlot: s.codeSlotTable(sc), miss: sc.MissingMask()}, nil
		}
	default:
		return nil, fmt.Errorf("sketch: bucket spec kind %v unsupported", s.Kind)
	}
	idx, err := s.Indexer(col)
	if err != nil {
		return nil, err
	}
	return &scalarBatchIndexer{idx: idx}, nil
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
