package sketch

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/table"
	"repro/internal/wire"
)

// Binary codecs for every shipped wire result type. Counter and float
// arrays are fixed-width little-endian (one length check per array, no
// per-element branching on decode); lengths and small counters are
// uvarints; signed scalars that can be large are fixed-width. Field
// order is the struct's declaration order and is wire format: append
// new fields at the end, never reorder.

func init() {
	RegisterResultCodec(tagHistogram, func() WireResult { return &Histogram{} })
	RegisterResultCodec(tagHistogram2D, func() WireResult { return &Histogram2D{} })
	RegisterResultCodec(tagTrellis, func() WireResult { return &Trellis{} })
	RegisterResultCodec(tagNextKList, func() WireResult { return &NextKList{} })
	RegisterResultCodec(tagFindResult, func() WireResult { return &FindResult{} })
	RegisterResultCodec(tagSampleSet, func() WireResult { return &SampleSet{} })
	RegisterResultCodec(tagHeavyHitters, func() WireResult { return &HeavyHitters{} })
	RegisterResultCodec(tagDataRange, func() WireResult { return &DataRange{} })
	RegisterResultCodec(tagMoments, func() WireResult { return &Moments{} })
	RegisterResultCodec(tagHLL, func() WireResult { return &HLL{} })
	RegisterResultCodec(tagBottomKSet, func() WireResult { return &BottomKSet{} })
	RegisterResultCodec(tagTableMeta, func() WireResult { return &TableMeta{} })
}

// AppendWire implements WireResult.
func (h *Histogram) AppendWire(b []byte) []byte {
	b = appendBucketSpec(b, h.Buckets)
	b = wire.AppendI64s(b, h.Counts)
	b = wire.AppendI64(b, h.Missing)
	b = wire.AppendI64(b, h.OutOfRange)
	b = wire.AppendF64(b, h.SampleRate)
	return wire.AppendI64(b, h.SampledRows)
}

// DecodeWire implements WireResult.
func (h *Histogram) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if h.Buckets, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if h.Counts, b, err = wire.ConsumeI64s(b); err != nil {
		return b, err
	}
	if h.Missing, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if h.OutOfRange, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if h.SampleRate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	h.SampledRows, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult.
func (h *Histogram2D) AppendWire(b []byte) []byte {
	b = appendBucketSpec(b, h.X)
	b = appendBucketSpec(b, h.Y)
	b = wire.AppendI64s(b, h.Counts)
	b = wire.AppendI64s(b, h.YOther)
	b = wire.AppendI64(b, h.XMissing)
	b = wire.AppendF64(b, h.SampleRate)
	return wire.AppendI64(b, h.SampledRows)
}

// DecodeWire implements WireResult.
func (h *Histogram2D) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if h.X, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if h.Y, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if h.Counts, b, err = wire.ConsumeI64s(b); err != nil {
		return b, err
	}
	if h.YOther, b, err = wire.ConsumeI64s(b); err != nil {
		return b, err
	}
	if h.XMissing, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if h.SampleRate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	h.SampledRows, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult.
func (t *Trellis) AppendWire(b []byte) []byte {
	b = appendBucketSpec(b, t.Group)
	b = wire.AppendLen(b, len(t.Plots), t.Plots == nil)
	for _, p := range t.Plots {
		b = wire.AppendBool(b, p != nil)
		if p != nil {
			b = p.AppendWire(b)
		}
	}
	b = wire.AppendI64(b, t.GroupOther)
	b = wire.AppendF64(b, t.SampleRate)
	return wire.AppendI64(b, t.SampledRows)
}

// DecodeWire implements WireResult.
func (t *Trellis) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if t.Group, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	n, isNil, b, err := wire.ConsumeLen(b, 1)
	if err != nil {
		return b, err
	}
	if !isNil {
		t.Plots = make([]*Histogram2D, 0, wire.PreallocLen(n))
		for i := 0; i < n; i++ {
			var present bool
			if present, b, err = wire.ConsumeBool(b); err != nil {
				return b, err
			}
			if !present {
				t.Plots = append(t.Plots, nil)
				continue
			}
			p := &Histogram2D{}
			if b, err = p.DecodeWire(b); err != nil {
				return b, err
			}
			t.Plots = append(t.Plots, p)
		}
	}
	if t.GroupOther, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if t.SampleRate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	t.SampledRows, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult.
func (l *NextKList) AppendWire(b []byte) []byte {
	b = appendOrder(b, l.Order)
	b = wire.AppendLen(b, len(l.Rows), l.Rows == nil)
	for _, r := range l.Rows {
		b = appendRow(b, r)
	}
	b = wire.AppendI64s(b, l.Counts)
	b = wire.AppendI64(b, l.Before)
	b = wire.AppendI64(b, l.Total)
	return wire.AppendVarint(b, int64(l.K))
}

// DecodeWire implements WireResult.
func (l *NextKList) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if l.Order, b, err = consumeOrder(b); err != nil {
		return b, err
	}
	n, isNil, b, err := wire.ConsumeLen(b, 1)
	if err != nil {
		return b, err
	}
	if !isNil {
		l.Rows = make([]table.Row, 0, wire.PreallocLen(n))
		for i := 0; i < n; i++ {
			var r table.Row
			if r, b, err = consumeRow(b); err != nil {
				return b, err
			}
			l.Rows = append(l.Rows, r)
		}
	}
	if l.Counts, b, err = wire.ConsumeI64s(b); err != nil {
		return b, err
	}
	if l.Before, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if l.Total, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	var k int64
	k, b, err = wire.ConsumeVarint(b)
	l.K = int(k)
	return b, err
}

// AppendWire implements WireResult.
func (f *FindResult) AppendWire(b []byte) []byte {
	b = appendRow(b, f.Match)
	b = wire.AppendI64(b, f.MatchesAfter)
	return wire.AppendI64(b, f.MatchesBefore)
}

// DecodeWire implements WireResult.
func (f *FindResult) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if f.Match, b, err = consumeRow(b); err != nil {
		return b, err
	}
	if f.MatchesAfter, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	f.MatchesBefore, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult.
func (s *SampleSet) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(s.K))
	b = wire.AppendLen(b, len(s.Items), s.Items == nil)
	for _, it := range s.Items {
		b = wire.AppendU64(b, it.Hash)
		b = appendRow(b, it.Row)
	}
	return wire.AppendI64(b, s.Total)
}

// DecodeWire implements WireResult.
func (s *SampleSet) DecodeWire(b []byte) ([]byte, error) {
	k, b, err := wire.ConsumeVarint(b)
	if err != nil {
		return b, err
	}
	s.K = int(k)
	n, isNil, b, err := wire.ConsumeLen(b, 9)
	if err != nil {
		return b, err
	}
	if !isNil {
		s.Items = make([]SampleItem, 0, wire.PreallocLen(n))
		for i := 0; i < n; i++ {
			var it SampleItem
			if it.Hash, b, err = wire.ConsumeU64(b); err != nil {
				return b, err
			}
			if it.Row, b, err = consumeRow(b); err != nil {
				return b, err
			}
			s.Items = append(s.Items, it)
		}
	}
	s.Total, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult. The counters go out sorted by their
// encoded value bytes (then count), not in map order, so equal results
// encode to equal frames. The order is on bytes, not Value.Compare,
// which is not an order when NaN is among the values.
func (h *HeavyHitters) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(h.K))
	b = wire.AppendLen(b, len(h.Counters), h.Counters == nil)
	type counter struct {
		value []byte
		count int64
	}
	counters := make([]counter, 0, len(h.Counters))
	var values []byte
	for v, c := range h.Counters {
		n := len(values)
		values = appendValue(values, v)
		counters = append(counters, counter{values[n:len(values):len(values)], c})
	}
	slices.SortFunc(counters, func(x, y counter) int {
		if c := bytes.Compare(x.value, y.value); c != 0 {
			return c
		}
		return cmp.Compare(x.count, y.count)
	})
	for _, c := range counters {
		b = append(b, c.value...)
		b = wire.AppendVarint(b, c.count)
	}
	b = wire.AppendI64(b, h.ScannedRows)
	return wire.AppendBool(b, h.Sampled)
}

// DecodeWire implements WireResult.
func (h *HeavyHitters) DecodeWire(b []byte) ([]byte, error) {
	k, b, err := wire.ConsumeVarint(b)
	if err != nil {
		return b, err
	}
	h.K = int(k)
	n, isNil, b, err := wire.ConsumeLen(b, minValueBytes+1)
	if err != nil {
		return b, err
	}
	if !isNil {
		h.Counters = make(map[table.Value]int64, wire.PreallocLen(n))
		for i := 0; i < n; i++ {
			var v table.Value
			if v, b, err = consumeValue(b); err != nil {
				return b, err
			}
			var c int64
			if c, b, err = wire.ConsumeVarint(b); err != nil {
				return b, err
			}
			h.Counters[v] = c
		}
	}
	if h.ScannedRows, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	h.Sampled, b, err = wire.ConsumeBool(b)
	return b, err
}

// AppendWire implements WireResult.
func (r *DataRange) AppendWire(b []byte) []byte {
	b = append(b, byte(r.Kind))
	b = wire.AppendF64(b, r.Min)
	b = wire.AppendF64(b, r.Max)
	b = wire.AppendString(b, r.MinS)
	b = wire.AppendString(b, r.MaxS)
	b = wire.AppendI64(b, r.Present)
	return wire.AppendI64(b, r.Missing)
}

// DecodeWire implements WireResult.
func (r *DataRange) DecodeWire(b []byte) ([]byte, error) {
	k, b, err := wire.ConsumeByte(b)
	if err != nil {
		return b, err
	}
	r.Kind = table.Kind(k)
	if r.Min, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	if r.Max, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	if r.MinS, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if r.MaxS, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if r.Present, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	r.Missing, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult.
func (m *Moments) AppendWire(b []byte) []byte {
	b = wire.AppendI64(b, m.Count)
	b = wire.AppendI64(b, m.Missing)
	b = wire.AppendF64(b, m.Min)
	b = wire.AppendF64(b, m.Max)
	return wire.AppendF64s(b, m.Sums)
}

// DecodeWire implements WireResult.
func (m *Moments) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if m.Count, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if m.Missing, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	if m.Min, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	if m.Max, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	m.Sums, b, err = wire.ConsumeF64s(b)
	return b, err
}

// AppendWire implements WireResult.
func (h *HLL) AppendWire(b []byte) []byte {
	b = append(b, h.Precision)
	return wire.AppendBytes(b, h.Registers)
}

// DecodeWire implements WireResult.
func (h *HLL) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if h.Precision, b, err = wire.ConsumeByte(b); err != nil {
		return b, err
	}
	h.Registers, b, err = wire.ConsumeBytes(b)
	return b, err
}

// AppendWire implements WireResult.
func (s *BottomKSet) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(s.K))
	b = wire.AppendU64s(b, s.Hashes)
	b = wire.AppendStrings(b, s.Values)
	b = wire.AppendBool(b, s.AllValues)
	return wire.AppendI64(b, s.PresentRows)
}

// DecodeWire implements WireResult.
func (s *BottomKSet) DecodeWire(b []byte) ([]byte, error) {
	k, b, err := wire.ConsumeVarint(b)
	if err != nil {
		return b, err
	}
	s.K = int(k)
	if s.Hashes, b, err = wire.ConsumeU64s(b); err != nil {
		return b, err
	}
	if s.Values, b, err = wire.ConsumeStrings(b); err != nil {
		return b, err
	}
	if s.AllValues, b, err = wire.ConsumeBool(b); err != nil {
		return b, err
	}
	s.PresentRows, b, err = wire.ConsumeI64(b)
	return b, err
}

// AppendWire implements WireResult.
func (m *TableMeta) AppendWire(b []byte) []byte {
	b = appendSchema(b, m.Schema)
	b = wire.AppendI64(b, m.Rows)
	return wire.AppendVarint(b, int64(m.Leaves))
}

// DecodeWire implements WireResult.
func (m *TableMeta) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if m.Schema, b, err = consumeSchema(b); err != nil {
		return b, err
	}
	if m.Rows, b, err = wire.ConsumeI64(b); err != nil {
		return b, err
	}
	var leaves int64
	leaves, b, err = wire.ConsumeVarint(b)
	m.Leaves = int(leaves)
	return b, err
}
