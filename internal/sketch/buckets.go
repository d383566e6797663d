package sketch

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/table"
)

// BucketSpec describes histogram bucket geometry for one axis. It covers
// both numeric bucketing (equi-width intervals over [Min, Max]) and
// string bucketing (lexicographic ranges with explicit left boundaries,
// paper App. B.1 "equi-width buckets for string data"). One concrete
// type keeps summaries gob-serializable.
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
		// Dictionary fast path: precompute code -> bucket.
		codeBucket := s.codeBucketTable(sc)
		return func(row int) int {
			if sc.Missing(row) {
				return -2
			}
			return int(codeBucket[sc.Code(row)])
		}, nil
	default:
		return nil, fmt.Errorf("sketch: bucket spec kind %v unsupported", s.Kind)
	}
}

// BatchIndexer maps many rows to bucket indexes at once. IndexSpan
// covers a contiguous physical row range; IndexRows a gathered index
// list. Bucket codes follow the Indexer convention: -2 for missing rows,
// -1 for out-of-range values, otherwise the bucket number.
//
// Implementations are specialized per column representation — direct
// slice access to int64/float64 values or dictionary codes, with the
// missing-bitset nil check hoisted out of the loop — so the inner loops
// run with no per-row closure or interface call. ComputedColumn falls
// back to the row-at-a-time Indexer.
type BatchIndexer interface {
	// IndexSpan fills out[k] with the bucket of row start+k for every
	// k in [0, end-start). len(out) must be at least end-start.
	IndexSpan(start, end int, out []int32)
	// IndexRows fills out[k] with the bucket of rows[k]. len(out) must
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

// index is IndexValue with the spec fields in registers. Both
// comparisons are inverted so NaN fails them: the first rejects NaN rows
// along with below-range values, the last sends a NaN quotient (infinite
// bounds) to the last bucket. Either NaN would otherwise reach the int
// conversion, whose result is platform-defined and lands outside the
// tally array in the fused count kernels.
func (p numericIndex) index(v float64) int32 {
	if p.count <= 0 || !(v >= p.min) || v > p.max {
		return -1
	}
	if p.max == p.min {
		return 0
	}
	x := p.countF * (v - p.min) / (p.max - p.min)
	if !(x < p.countF) {
		return p.count - 1
	}
	return int32(x)
}

// intBatchIndexer buckets an IntColumn through its backing slice.
type intBatchIndexer struct {
	vals []int64
	miss *table.Bitset // nil when no rows are missing
	p    numericIndex
}

func (x *intBatchIndexer) IndexSpan(start, end int, out []int32) {
	vals := x.vals[start:end]
	out = out[:len(vals)]
	if x.miss == nil {
		for k, v := range vals {
			out[k] = x.p.index(float64(v))
		}
		return
	}
	for k, v := range vals {
		if x.miss.Get(start + k) {
			out[k] = -2
		} else {
			out[k] = x.p.index(float64(v))
		}
	}
}

func (x *intBatchIndexer) IndexRows(rows []int32, out []int32) {
	if x.miss == nil {
		for k, r := range rows {
			out[k] = x.p.index(float64(x.vals[r]))
		}
		return
	}
	for k, r := range rows {
		if x.miss.Get(int(r)) {
			out[k] = -2
		} else {
			out[k] = x.p.index(float64(x.vals[r]))
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
	vals := x.vals[start:end]
	out = out[:len(vals)]
	if x.miss == nil {
		for k, v := range vals {
			out[k] = x.p.index(v)
		}
		return
	}
	for k, v := range vals {
		if x.miss.Get(start + k) {
			out[k] = -2
		} else {
			out[k] = x.p.index(v)
		}
	}
}

func (x *doubleBatchIndexer) IndexRows(rows []int32, out []int32) {
	if x.miss == nil {
		for k, r := range rows {
			out[k] = x.p.index(x.vals[r])
		}
		return
	}
	for k, r := range rows {
		if x.miss.Get(int(r)) {
			out[k] = -2
		} else {
			out[k] = x.p.index(x.vals[r])
		}
	}
}

// stringBatchIndexer buckets a StringColumn through its dictionary codes
// and a precomputed code→bucket table.
type stringBatchIndexer struct {
	codes      []int32
	codeBucket []int32
	miss       *table.Bitset
}

func (x *stringBatchIndexer) IndexSpan(start, end int, out []int32) {
	codes := x.codes[start:end]
	out = out[:len(codes)]
	if x.miss == nil {
		for k, c := range codes {
			out[k] = x.codeBucket[c]
		}
		return
	}
	for k, c := range codes {
		if x.miss.Get(start + k) {
			out[k] = -2
		} else {
			out[k] = x.codeBucket[c]
		}
	}
}

func (x *stringBatchIndexer) IndexRows(rows []int32, out []int32) {
	if x.miss == nil {
		for k, r := range rows {
			out[k] = x.codeBucket[x.codes[r]]
		}
		return
	}
	for k, r := range rows {
		if x.miss.Get(int(r)) {
			out[k] = -2
		} else {
			out[k] = x.codeBucket[x.codes[r]]
		}
	}
}

// bucketCounter is an optional BatchIndexer extension that fuses bucket
// indexing with histogram tallying, skipping the intermediate bucket
// code buffer. tallies is laid out [missing, outOfRange, bucket 0, ...]
// (see bucketTally); kernels add one to tallies[bucket+2] per row.
type bucketCounter interface {
	CountSpan(start, end int, tallies []int64)
	CountRows(rows []int32, tallies []int64)
}

func (x *intBatchIndexer) CountSpan(start, end int, tallies []int64) {
	vals := x.vals[start:end]
	if x.miss == nil {
		for _, v := range vals {
			tallies[x.p.index(float64(v))+2]++
		}
		return
	}
	for k, v := range vals {
		if x.miss.Get(start + k) {
			tallies[0]++
		} else {
			tallies[x.p.index(float64(v))+2]++
		}
	}
}

func (x *intBatchIndexer) CountRows(rows []int32, tallies []int64) {
	if x.miss == nil {
		for _, r := range rows {
			tallies[x.p.index(float64(x.vals[r]))+2]++
		}
		return
	}
	for _, r := range rows {
		if x.miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[x.p.index(float64(x.vals[r]))+2]++
		}
	}
}

func (x *doubleBatchIndexer) CountSpan(start, end int, tallies []int64) {
	vals := x.vals[start:end]
	if x.miss == nil {
		for _, v := range vals {
			tallies[x.p.index(v)+2]++
		}
		return
	}
	for k, v := range vals {
		if x.miss.Get(start + k) {
			tallies[0]++
		} else {
			tallies[x.p.index(v)+2]++
		}
	}
}

func (x *doubleBatchIndexer) CountRows(rows []int32, tallies []int64) {
	if x.miss == nil {
		for _, r := range rows {
			tallies[x.p.index(x.vals[r])+2]++
		}
		return
	}
	for _, r := range rows {
		if x.miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[x.p.index(x.vals[r])+2]++
		}
	}
}

func (x *stringBatchIndexer) CountSpan(start, end int, tallies []int64) {
	codes := x.codes[start:end]
	if x.miss == nil {
		for _, c := range codes {
			tallies[x.codeBucket[c]+2]++
		}
		return
	}
	for k, c := range codes {
		if x.miss.Get(start + k) {
			tallies[0]++
		} else {
			tallies[x.codeBucket[c]+2]++
		}
	}
}

func (x *stringBatchIndexer) CountRows(rows []int32, tallies []int64) {
	if x.miss == nil {
		for _, r := range rows {
			tallies[x.codeBucket[x.codes[r]]+2]++
		}
		return
	}
	for _, r := range rows {
		if x.miss.Get(int(r)) {
			tallies[0]++
		} else {
			tallies[x.codeBucket[x.codes[r]]+2]++
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
		out[k] = int32(x.idx(start + k))
	}
}

func (x *scalarBatchIndexer) IndexRows(rows []int32, out []int32) {
	for k, r := range rows {
		out[k] = int32(x.idx(int(r)))
	}
}

// codeBucketTable precomputes the code → bucket mapping for a dictionary
// column (one IndexString per distinct value, as Indexer does).
func (s BucketSpec) codeBucketTable(sc *table.StringColumn) []int32 {
	dict := sc.Dict()
	codeBucket := make([]int32, len(dict))
	for c, v := range dict {
		codeBucket[c] = int32(s.IndexString(v))
	}
	return codeBucket
}

// BatchIndexer returns the batch bucket kernel bound to a column. It
// computes exactly what Indexer computes row by row, amortizing dispatch
// over whole batches.
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
			return &stringBatchIndexer{codes: sc.Codes(), codeBucket: s.codeBucketTable(sc), miss: sc.MissingMask()}, nil
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

// String renders the geometry for sketch names and cache keys.
func (s BucketSpec) String() string {
	if s.Kind == table.KindString {
		return fmt.Sprintf("str[%d:%s]", s.Count, strings.Join(s.Bounds, "|"))
	}
	return fmt.Sprintf("num[%d:%g,%g]", s.Count, s.Min, s.Max)
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
