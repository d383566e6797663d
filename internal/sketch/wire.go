package sketch

import "encoding/gob"

// wireSketches holds one prototype per shipped sketch type. It is the
// single source of truth for "every sketch in the system": gob wire
// registration ranges over it, the testkit differential oracle asserts
// it covers exactly this list (a sketch added here without an Oracle
// registration fails the harness coverage test), and the binary codec
// coverage test (codec_test.go) fails any entry whose sketch or result
// type lacks a registered wire codec (codec.go).
var wireSketches = []Sketch{
	&HistogramSketch{},
	&SampledHistogramSketch{},
	&CDFSketch{},
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
	&PCASketch{},
	&MetaSketch{},
	&MultiSketch{},
}

// WireSketches returns a copy of the shipped sketch prototypes.
func WireSketches() []Sketch {
	return append([]Sketch(nil), wireSketches...)
}

// init registers every sketch and summary type with encoding/gob so that
// sketches can be shipped to remote workers and summaries shipped back
// (paper §5.5: a vizketch needs "a serializable type for the summary").
// Registering here, in the package both sides import, guarantees the
// root and the workers agree on the wire names. Since the binary codec
// became the transport default, gob carries only types without a codec:
// whole envelopes (cluster.MsgGobEnvelope — in-tree, the spreadsheet's
// save vizketch and the overload battery's panicking sketch) and
// codec-less MultiSketch members (MultiSketch.AppendWire). A shipped
// summary can appear inside either — a MultiResult beside a codec-less
// member's result, say — so every shipped type stays registered.
func init() {
	// Summaries.
	gob.Register(&Histogram{})
	gob.Register(&Histogram2D{})
	gob.Register(&Trellis{})
	gob.Register(&NextKList{})
	gob.Register(&FindResult{})
	gob.Register(&SampleSet{})
	gob.Register(&HeavyHitters{})
	gob.Register(&DataRange{})
	gob.Register(&Moments{})
	gob.Register(&HLL{})
	gob.Register(&BottomKSet{})
	gob.Register(&CoMoments{})
	gob.Register(&TableMeta{})
	gob.Register(&MultiResult{})

	// Sketches.
	for _, s := range wireSketches {
		gob.Register(s)
	}
}
