package sketch

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/table"
)

// SampleItem is one row of a uniform bottom-k row sample, tagged with
// its sampling priority.
type SampleItem struct {
	Hash uint64
	Row  table.Row // [order columns..., extra columns...] layout
}

// SampleSet is a mergeable uniform sample of rows: every row gets a
// deterministic pseudo-random priority and the K smallest priorities
// survive every merge, so the final set is a uniform sample without
// replacement of the whole dataset regardless of partitioning. It backs
// the scroll-bar quantile vizketch (paper §4.3, App. C.1).
type SampleSet struct {
	K int
	// Items are sorted by Hash ascending; len(Items) ≤ K.
	Items []SampleItem
	// Total counts member rows scanned.
	Total int64
}

// Quantile returns the row at quantile q ∈ [0, 1] of the sample under
// the given order, or nil for an empty sample. With |S| ≥ O(V²·log(1/δ))
// samples the returned row's true rank is within ±1/(2V) of q with
// probability 1−δ (paper App. C Thm 2).
func (s *SampleSet) Quantile(q float64, order table.RecordOrder) table.Row {
	if len(s.Items) == 0 {
		return nil
	}
	rows := make([]table.Row, len(s.Items))
	for i, it := range s.Items {
		rows[i] = it.Row
	}
	cmp := order.RowComparator()
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	i := int(q * float64(len(rows)-1))
	return rows[i]
}

// QuantileSketch draws a bounded uniform row sample for quantile
// estimation. SampleSize should be QuantileSampleSize(V, δ) for a
// scroll bar of V pixels.
type QuantileSketch struct {
	Order      table.RecordOrder
	Extra      []string
	SampleSize int
	Seed       uint64
}

// Name implements Sketch.
func (s *QuantileSketch) Name() string {
	return fmt.Sprintf("quantile(%s,n=%d,seed=%d)", s.Order, s.SampleSize, s.Seed)
}

// Zero implements Sketch.
func (s *QuantileSketch) Zero() Result { return &SampleSet{K: s.k()} }

// k is the sample bound every result carries: SampleSize, at least 1.
func (s *QuantileSketch) k() int { return max(s.SampleSize, 1) }

// maxHashHeap is a max-heap of SampleItems by Hash, holding the current
// bottom-k candidates with the largest (evictable) on top.
type maxHashHeap []SampleItem

func (h maxHashHeap) Len() int           { return len(h) }
func (h maxHashHeap) Less(i, j int) bool { return h[i].Hash > h[j].Hash }
func (h maxHashHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHashHeap) Push(x any)        { *h = append(*h, x.(SampleItem)) }
func (h *maxHashHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Summarize implements Sketch.
func (s *QuantileSketch) Summarize(t *table.Table) (Result, error) {
	cols := make([]int, 0, len(s.Order)+len(s.Extra))
	for _, o := range s.Order {
		i := t.Schema().ColumnIndex(o.Column)
		if i < 0 {
			return nil, fmt.Errorf("sketch: quantile: no column %q", o.Column)
		}
		cols = append(cols, i)
	}
	for _, name := range s.Extra {
		i := t.Schema().ColumnIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("sketch: quantile: no column %q", name)
		}
		cols = append(cols, i)
	}
	k := s.k()
	// SampleSize arrives off the wire on workers, so no allocation is
	// sized by it alone: the heap never holds more than the partition's
	// members.
	h := make(maxHashHeap, 0, min(k, t.Members().Size()))
	out := &SampleSet{K: k}
	t.Members().Iterate(func(row int) bool {
		out.Total++
		hv := hashRowKey(s.Seed, t.ID(), row)
		if len(h) < k {
			heap.Push(&h, SampleItem{Hash: hv, Row: t.GetRowCols(row, cols)})
		} else if hv < h[0].Hash {
			h[0] = SampleItem{Hash: hv, Row: t.GetRowCols(row, cols)}
			heap.Fix(&h, 0)
		}
		return true
	})
	if len(h) > 0 { // else nil Items, like Zero and Merge
		out.Items = []SampleItem(h)
		sort.Slice(out.Items, func(i, j int) bool { return out.Items[i].Hash < out.Items[j].Hash })
	}
	return out, nil
}

// Merge implements Sketch: merge two hash-sorted lists, keep the K
// smallest priorities.
func (s *QuantileSketch) Merge(a, b Result) (Result, error) {
	sa, ok1 := a.(*SampleSet)
	sb, ok2 := b.(*SampleSet)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: quantile merge got %T and %T", a, b)
	}
	k := s.k()
	out := &SampleSet{K: k, Total: sa.Total + sb.Total}
	i, j := 0, 0
	for len(out.Items) < k && (i < len(sa.Items) || j < len(sb.Items)) {
		switch {
		case i >= len(sa.Items):
			out.Items = append(out.Items, sb.Items[j])
			j++
		case j >= len(sb.Items):
			out.Items = append(out.Items, sa.Items[i])
			i++
		case sa.Items[i].Hash <= sb.Items[j].Hash:
			out.Items = append(out.Items, sa.Items[i])
			i++
		default:
			out.Items = append(out.Items, sb.Items[j])
			j++
		}
	}
	return out, nil
}
