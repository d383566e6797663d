package sketch

// wireSketches holds one prototype per shipped sketch type. It is the
// single source of truth for "every sketch in the system": the testkit
// differential oracle asserts it covers exactly this list (a sketch
// added here without a case in testkit's contract switch fails the
// harness coverage test), and the binary codec coverage test
// (codec_test.go) fails any entry whose sketch or result type lacks a
// registered wire codec (codec.go).
var wireSketches = []Sketch{
	&HistogramSketch{},
	&Histogram2DSketch{},
	&TrellisSketch{},
	&NextKSketch{},
	&FindTextSketch{},
	&QuantileSketch{},
	&MisraGriesSketch{},
	&SampleHeavyHittersSketch{},
	&RangeSketch{},
	&MomentsSketch{},
	&DistinctCountSketch{},
	&DistinctBottomKSketch{},
	&MetaSketch{},
	&MultiSketch{},
}

// WireSketches returns a copy of the shipped sketch prototypes.
func WireSketches() []Sketch {
	return append([]Sketch(nil), wireSketches...)
}
