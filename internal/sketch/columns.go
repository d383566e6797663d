package sketch

import "repro/internal/table"

// This file collects the ColumnUser declarations of the shipped
// sketches in one auditable place: each Columns() must name every
// column the sketch's Summarize (and accumulator) reads, so that a
// column-store leaf can materialize exactly those blocks. MetaSketch
// deliberately has no declaration — it summarizes the schema itself,
// so it must see the whole table.

func orderCols(order table.RecordOrder, extra []string, more ...string) []string {
	out := append(append(order.Columns(), extra...), more...)
	return out
}

// Columns implements ColumnUser.
func (s *HistogramSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *SampledHistogramSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *CDFSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *Histogram2DSketch) Columns() []string { return []string{s.XCol, s.YCol} }

// Columns implements ColumnUser.
func (s *TrellisSketch) Columns() []string { return []string{s.GroupCol, s.XCol, s.YCol} }

// Columns implements ColumnUser.
func (s *MisraGriesSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *SampleHeavyHittersSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *RangeSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *MomentsSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *DistinctCountSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *DistinctBottomKSketch) Columns() []string { return []string{s.Col} }

// Columns implements ColumnUser.
func (s *NextKSketch) Columns() []string { return orderCols(s.Order, s.Extra) }

// Columns implements ColumnUser.
func (s *FindTextSketch) Columns() []string { return orderCols(s.Order, s.Extra, s.Col) }

// Columns implements ColumnUser.
func (s *QuantileSketch) Columns() []string { return orderCols(s.Order, s.Extra) }
