package sketch

import (
	"fmt"
	"sort"

	"repro/internal/table"
)

// BottomKSet is a mergeable uniform sample of the *distinct* values of a
// string column: each distinct value gets a deterministic hash priority
// and the K smallest survive merges. It implements the bottom-k sampling
// sketch the paper uses to find equi-width string bucket boundaries
// without sorting the full dataset (App. B.1, refs [92, 19]).
//
// When AllValues is true the sample never overflowed: it holds every
// distinct value of the data, exactly — which is how the ≤ 50-distinct
// "one bucket per value" case is detected.
type BottomKSet struct {
	K int
	// Hashes and Values are parallel, sorted by hash ascending.
	Hashes []uint64
	Values []string
	// AllValues is true when the set contains every distinct value.
	AllValues bool
	// PresentRows counts non-missing member rows scanned.
	PresentRows int64
}

// SortedValues returns the sampled values in lexicographic order.
func (s *BottomKSet) SortedValues() []string {
	out := make([]string, len(s.Values))
	copy(out, s.Values)
	sort.Strings(out)
	return out
}

// Buckets derives string bucket geometry: exact per-value buckets when
// the sample holds all distinct values and they fit, otherwise
// quantile boundaries over the sampled distinct values.
func (s *BottomKSet) Buckets(maxBuckets int) BucketSpec {
	sorted := s.SortedValues()
	if s.AllValues {
		return StringBucketsFromDistinct(sorted, maxBuckets)
	}
	if maxBuckets <= 0 || maxBuckets > maxStringBuckets {
		maxBuckets = maxStringBuckets
	}
	if len(sorted) <= maxBuckets {
		// Sample smaller than bucket budget: use the sampled values as
		// boundaries directly (ranges, not exact membership, since other
		// values exist).
		return StringBucketsFromBounds(sorted, false)
	}
	bounds := make([]string, maxBuckets)
	for i := 0; i < maxBuckets; i++ {
		bounds[i] = sorted[i*len(sorted)/maxBuckets]
	}
	return StringBucketsFromBounds(dedupSorted(bounds), false)
}

// DistinctBottomKSketch samples distinct string values by hash priority.
// Hashing is a pure function of the value, so the sketch is
// deterministic and cacheable.
type DistinctBottomKSketch struct {
	Col string
	K   int
}

// Name implements Sketch.
func (s *DistinctBottomKSketch) Name() string { return fmt.Sprintf("bottomk(%s,k=%d)", s.Col, s.K) }

// CacheKey implements Cacheable.
func (s *DistinctBottomKSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *DistinctBottomKSketch) Zero() Result {
	return &BottomKSet{K: s.K, AllValues: true}
}

// Summarize implements Sketch over a dictionary column: the member rows
// are scanned once to find which codes actually occur (a filtered table
// may hide some), then only occurring values are hashed.
func (s *DistinctBottomKSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	k := s.K
	if k < 1 {
		k = 1
	}
	out := &BottomKSet{K: s.K, AllValues: true}

	type hv struct {
		h uint64
		v string
	}
	c, ok := col.(*table.StringColumn)
	if !ok {
		return nil, fmt.Errorf("sketch: bottom-k over %v column %q", col.Kind(), s.Col)
	}
	occurs := make([]bool, c.DictSize())
	t.Members().Iterate(func(row int) bool {
		if !c.Missing(row) {
			occurs[c.Code(row)] = true
			out.PresentRows++
		}
		return true
	})
	var candidates []hv
	for code, ok := range occurs {
		if ok {
			v := c.Dict()[code]
			candidates = append(candidates, hv{h: hashString(v), v: v})
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].h < candidates[j].h })
	if len(candidates) > k {
		candidates = candidates[:k]
		out.AllValues = false
	}
	if len(candidates) == 0 {
		return out, nil // nil lists, like Zero and Merge
	}
	out.Hashes = make([]uint64, len(candidates))
	out.Values = make([]string, len(candidates))
	for i, c := range candidates {
		out.Hashes[i] = c.h
		out.Values[i] = c.v
	}
	return out, nil
}

// Merge implements Sketch: merge hash-sorted lists with deduplication
// (the same value hashes identically everywhere), keep the K smallest.
func (s *DistinctBottomKSketch) Merge(a, b Result) (Result, error) {
	sa, ok1 := a.(*BottomKSet)
	sb, ok2 := b.(*BottomKSet)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: bottomk merge got %T and %T", a, b)
	}
	k := s.K
	if k < 1 {
		k = 1
	}
	out := &BottomKSet{
		K:           s.K,
		AllValues:   sa.AllValues && sb.AllValues,
		PresentRows: sa.PresentRows + sb.PresentRows,
	}
	i, j := 0, 0
	for i < len(sa.Hashes) || j < len(sb.Hashes) {
		if len(out.Hashes) >= k {
			out.AllValues = false
			break
		}
		switch {
		case i >= len(sa.Hashes):
			out.Hashes = append(out.Hashes, sb.Hashes[j])
			out.Values = append(out.Values, sb.Values[j])
			j++
		case j >= len(sb.Hashes):
			out.Hashes = append(out.Hashes, sa.Hashes[i])
			out.Values = append(out.Values, sa.Values[i])
			i++
		case sa.Hashes[i] < sb.Hashes[j]:
			out.Hashes = append(out.Hashes, sa.Hashes[i])
			out.Values = append(out.Values, sa.Values[i])
			i++
		case sa.Hashes[i] > sb.Hashes[j]:
			out.Hashes = append(out.Hashes, sb.Hashes[j])
			out.Values = append(out.Values, sb.Values[j])
			j++
		default: // same hash: same value (dedup)
			out.Hashes = append(out.Hashes, sa.Hashes[i])
			out.Values = append(out.Values, sa.Values[i])
			i++
			j++
		}
	}
	return out, nil
}
