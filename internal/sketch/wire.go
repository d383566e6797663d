package sketch

// wireSketches holds one prototype per shipped sketch type, with the
// sketch codec tag it is registered under (codec.go). It is the single
// source of truth for "every sketch in the system": the codec registers
// from it, the testkit differential oracle asserts it covers exactly
// this list (a sketch added here without a case in testkit's contract
// switch fails the harness coverage test), and the binary codec
// coverage test (codec_test.go) fails any entry whose result type lacks
// a wire tag.
var wireSketches = []struct {
	tag   byte
	proto Sketch
}{
	{tagHistogramSketch, &HistogramSketch{}},
	{tagHistogram2DSketch, &Histogram2DSketch{}},
	{tagTrellisSketch, &TrellisSketch{}},
	{tagNextKSketch, &NextKSketch{}},
	{tagFindTextSketch, &FindTextSketch{}},
	{tagQuantileSketch, &QuantileSketch{}},
	{tagMisraGriesSketch, &MisraGriesSketch{}},
	{tagSampleHHSketch, &SampleHeavyHittersSketch{}},
	{tagRangeSketch, &RangeSketch{}},
	{tagMomentsSketch, &MomentsSketch{}},
	{tagDistinctCountSketch, &DistinctCountSketch{}},
	{tagDistinctBottomKSketch, &DistinctBottomKSketch{}},
	{tagMetaSketch, &MetaSketch{}},
	{tagMultiSketch, &MultiSketch{}},
}

// WireSketches returns the shipped sketch prototypes.
func WireSketches() []Sketch {
	out := make([]Sketch, len(wireSketches))
	for i, w := range wireSketches {
		out[i] = w.proto
	}
	return out
}
