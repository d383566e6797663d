package sketch

import (
	"repro/internal/table"
	"repro/internal/wire"
)

// Binary codecs for the request side of the wire: every shipped sketch
// type's configuration fields. These travel root→worker in MsgSketch
// frames; a sketch type absent here does not cross the wire.

func init() {
	RegisterSketchCodec(tagHistogramSketch, func() WireSketch { return &HistogramSketch{} })
	RegisterSketchCodec(tagSampledHistogramSketch, func() WireSketch { return &SampledHistogramSketch{} })
	RegisterSketchCodec(tagCDFSketch, func() WireSketch { return &CDFSketch{} })
	RegisterSketchCodec(tagHistogram2DSketch, func() WireSketch { return &Histogram2DSketch{} })
	RegisterSketchCodec(tagTrellisSketch, func() WireSketch { return &TrellisSketch{} })
	RegisterSketchCodec(tagNextKSketch, func() WireSketch { return &NextKSketch{} })
	RegisterSketchCodec(tagFindTextSketch, func() WireSketch { return &FindTextSketch{} })
	RegisterSketchCodec(tagQuantileSketch, func() WireSketch { return &QuantileSketch{} })
	RegisterSketchCodec(tagMisraGriesSketch, func() WireSketch { return &MisraGriesSketch{} })
	RegisterSketchCodec(tagSampleHHSketch, func() WireSketch { return &SampleHeavyHittersSketch{} })
	RegisterSketchCodec(tagRangeSketch, func() WireSketch { return &RangeSketch{} })
	RegisterSketchCodec(tagMomentsSketch, func() WireSketch { return &MomentsSketch{} })
	RegisterSketchCodec(tagDistinctCountSketch, func() WireSketch { return &DistinctCountSketch{} })
	RegisterSketchCodec(tagDistinctBottomKSketch, func() WireSketch { return &DistinctBottomKSketch{} })
	RegisterSketchCodec(tagMetaSketch, func() WireSketch { return &MetaSketch{} })
}

// AppendWire implements WireSketch.
func (s *HistogramSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	return appendBucketSpec(b, s.Buckets)
}

// DecodeWire implements WireSketch.
func (s *HistogramSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	s.Buckets, b, err = consumeBucketSpec(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *SampledHistogramSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	b = appendBucketSpec(b, s.Buckets)
	b = wire.AppendF64(b, s.Rate)
	return wire.AppendU64(b, s.Seed)
}

// DecodeWire implements WireSketch.
func (s *SampledHistogramSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.Buckets, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if s.Rate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	s.Seed, b, err = wire.ConsumeU64(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *CDFSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	b = appendBucketSpec(b, s.Buckets)
	b = wire.AppendF64(b, s.Rate)
	return wire.AppendU64(b, s.Seed)
}

// DecodeWire implements WireSketch.
func (s *CDFSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.Buckets, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if s.Rate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	s.Seed, b, err = wire.ConsumeU64(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *Histogram2DSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.XCol)
	b = wire.AppendString(b, s.YCol)
	b = appendBucketSpec(b, s.X)
	b = appendBucketSpec(b, s.Y)
	b = wire.AppendF64(b, s.Rate)
	return wire.AppendU64(b, s.Seed)
}

// DecodeWire implements WireSketch.
func (s *Histogram2DSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.XCol, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.YCol, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.X, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if s.Y, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if err = checkCells(s.X, s.Y); err != nil {
		return b, err
	}
	if s.Rate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	s.Seed, b, err = wire.ConsumeU64(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *TrellisSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.GroupCol)
	b = wire.AppendString(b, s.XCol)
	b = wire.AppendString(b, s.YCol)
	b = appendBucketSpec(b, s.Group)
	b = appendBucketSpec(b, s.X)
	b = appendBucketSpec(b, s.Y)
	b = wire.AppendF64(b, s.Rate)
	return wire.AppendU64(b, s.Seed)
}

// DecodeWire implements WireSketch.
func (s *TrellisSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.GroupCol, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.XCol, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.YCol, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.Group, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if s.X, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if s.Y, b, err = consumeBucketSpec(b); err != nil {
		return b, err
	}
	if err = checkCells(s.Group, s.X, s.Y); err != nil {
		return b, err
	}
	if s.Rate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	s.Seed, b, err = wire.ConsumeU64(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *NextKSketch) AppendWire(b []byte) []byte {
	b = appendOrder(b, s.Order)
	b = wire.AppendStrings(b, s.Extra)
	b = wire.AppendVarint(b, int64(s.K))
	return appendRow(b, s.From)
}

// DecodeWire implements WireSketch.
func (s *NextKSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Order, b, err = consumeOrder(b); err != nil {
		return b, err
	}
	if s.Extra, b, err = wire.ConsumeStrings(b); err != nil {
		return b, err
	}
	var k int64
	if k, b, err = wire.ConsumeVarint(b); err != nil {
		return b, err
	}
	s.K = int(k)
	if s.From, b, err = consumeRow(b); err != nil {
		return b, err
	}
	return b, wireCursor(s.Order, s.From)
}

// AppendWire implements WireSketch.
func (s *FindTextSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	b = wire.AppendString(b, s.Pattern)
	b = append(b, byte(s.Kind))
	b = wire.AppendBool(b, s.CaseSensitive)
	b = appendOrder(b, s.Order)
	b = wire.AppendStrings(b, s.Extra)
	return appendRow(b, s.From)
}

// DecodeWire implements WireSketch.
func (s *FindTextSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	if s.Pattern, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	var k byte
	if k, b, err = wire.ConsumeByte(b); err != nil {
		return b, err
	}
	s.Kind = MatchKind(k)
	if s.CaseSensitive, b, err = wire.ConsumeBool(b); err != nil {
		return b, err
	}
	if s.Order, b, err = consumeOrder(b); err != nil {
		return b, err
	}
	if s.Extra, b, err = wire.ConsumeStrings(b); err != nil {
		return b, err
	}
	if s.From, b, err = consumeRow(b); err != nil {
		return b, err
	}
	return b, wireCursor(s.Order, s.From)
}

// wireCursor rejects a decoded From cursor its order cannot index (see
// checkCursor) as corrupt wire data, before any worker scans with it.
func wireCursor(order table.RecordOrder, from table.Row) error {
	if err := checkCursor(order, from); err != nil {
		return wire.Corruptf("%v", err)
	}
	return nil
}

// AppendWire implements WireSketch.
func (s *QuantileSketch) AppendWire(b []byte) []byte {
	b = appendOrder(b, s.Order)
	b = wire.AppendStrings(b, s.Extra)
	b = wire.AppendVarint(b, int64(s.SampleSize))
	return wire.AppendU64(b, s.Seed)
}

// DecodeWire implements WireSketch.
func (s *QuantileSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Order, b, err = consumeOrder(b); err != nil {
		return b, err
	}
	if s.Extra, b, err = wire.ConsumeStrings(b); err != nil {
		return b, err
	}
	var n int64
	if n, b, err = wire.ConsumeVarint(b); err != nil {
		return b, err
	}
	s.SampleSize = int(n)
	s.Seed, b, err = wire.ConsumeU64(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *MisraGriesSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	return wire.AppendVarint(b, int64(s.K))
}

// DecodeWire implements WireSketch.
func (s *MisraGriesSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	var k int64
	k, b, err = wire.ConsumeVarint(b)
	s.K = int(k)
	return b, err
}

// AppendWire implements WireSketch.
func (s *SampleHeavyHittersSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	b = wire.AppendVarint(b, int64(s.K))
	b = wire.AppendF64(b, s.Rate)
	return wire.AppendU64(b, s.Seed)
}

// DecodeWire implements WireSketch.
func (s *SampleHeavyHittersSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	var k int64
	if k, b, err = wire.ConsumeVarint(b); err != nil {
		return b, err
	}
	s.K = int(k)
	if s.Rate, b, err = wire.ConsumeF64(b); err != nil {
		return b, err
	}
	s.Seed, b, err = wire.ConsumeU64(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *RangeSketch) AppendWire(b []byte) []byte {
	return wire.AppendString(b, s.Col)
}

// DecodeWire implements WireSketch.
func (s *RangeSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	s.Col, b, err = wire.ConsumeString(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *MomentsSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	return wire.AppendVarint(b, int64(s.K))
}

// DecodeWire implements WireSketch.
func (s *MomentsSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	var k int64
	k, b, err = wire.ConsumeVarint(b)
	s.K = int(k)
	return b, err
}

// AppendWire implements WireSketch.
func (s *DistinctCountSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	return append(b, s.Precision)
}

// DecodeWire implements WireSketch.
func (s *DistinctCountSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	s.Precision, b, err = wire.ConsumeByte(b)
	return b, err
}

// AppendWire implements WireSketch.
func (s *DistinctBottomKSketch) AppendWire(b []byte) []byte {
	b = wire.AppendString(b, s.Col)
	return wire.AppendVarint(b, int64(s.K))
}

// DecodeWire implements WireSketch.
func (s *DistinctBottomKSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if s.Col, b, err = wire.ConsumeString(b); err != nil {
		return b, err
	}
	var k int64
	k, b, err = wire.ConsumeVarint(b)
	s.K = int(k)
	return b, err
}

// AppendWire implements WireSketch.
func (s *MetaSketch) AppendWire(b []byte) []byte { return b }

// DecodeWire implements WireSketch.
func (s *MetaSketch) DecodeWire(b []byte) ([]byte, error) { return b, nil }
