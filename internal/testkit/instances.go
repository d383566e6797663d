package testkit

import (
	"repro/internal/sketch"
	"repro/internal/table"
)

// Instances builds the sketch set one oracle run drives: at least one
// instance of every type in sketch.WireSketches() (the coverage test
// enforces this), over every generated column — stored int, double,
// string (dictionary), date, and the derived double gc — with both exact
// and sampled modes where the sketch has them. Parameters derive from
// the run seed and the generated value domains, so bucket geometry and
// sampling rates vary across seeds without ever leaving the data's
// range. The sketch package's property tests run over it too.
func Instances(seed uint64, info table.GenInfo) []sketch.Sketch {
	dLo, dHi := info.DoubleLo, info.DoubleHi
	dBuckets := func(n int) sketch.BucketSpec {
		return sketch.NumericBuckets(table.KindDouble, dLo, dHi, n)
	}
	iBuckets := sketch.NumericBuckets(table.KindInt, float64(info.IntLo), float64(info.IntHi), 9)
	iZoom := intZoom(info)
	tBuckets := sketch.NumericBuckets(table.KindDate, float64(info.DateLo), float64(info.DateHi), 7)
	sBuckets := sketch.StringBucketsFromDistinct(info.DictValues, 12)
	groupBuckets := sketch.StringBucketsFromDistinct(info.DictValues, 3)
	mid := (dLo + dHi) / 2

	return []sketch.Sketch{
		// Exact histograms over every column representation.
		&sketch.HistogramSketch{Col: "gd", Buckets: dBuckets(13)},
		&sketch.HistogramSketch{Col: "gi", Buckets: iBuckets},
		&sketch.HistogramSketch{Col: "gt", Buckets: tBuckets},
		&sketch.HistogramSketch{Col: "gs", Buckets: sBuckets},
		&sketch.HistogramSketch{Col: "gc", Buckets: sketch.NumericBuckets(table.KindDouble, -48.5, 48.5, 11)},
		&sketch.HistogramSketch{Col: "gi", Buckets: iZoom},

		// Sampled histograms, and pixel-wide ones behind a CDF, exact and
		// sampled: identical across same-geometry topologies,
		// statistically bounded against exact ground truth.
		&sketch.HistogramSketch{Col: "gd", Buckets: dBuckets(10), Rate: 0.4, Seed: seed ^ 1},
		&sketch.HistogramSketch{Col: "gd", Buckets: dBuckets(50)},
		&sketch.HistogramSketch{Col: "gi", Buckets: iBuckets, Rate: 0.5, Seed: seed ^ 2},
		&sketch.Histogram2DSketch{XCol: "gd", YCol: "gs", X: dBuckets(6), Y: sBuckets}, // exact
		&sketch.Histogram2DSketch{XCol: "gi", YCol: "gd", X: iBuckets, Y: dBuckets(5), Rate: 0.5, Seed: seed ^ 3},
		&sketch.Histogram2DSketch{XCol: "gs", YCol: "gi", X: sBuckets, Y: iZoom},
		&sketch.TrellisSketch{GroupCol: "gs", XCol: "gd", YCol: "gi", Group: groupBuckets, X: dBuckets(4), Y: iBuckets, Rate: 1},
		&sketch.TrellisSketch{GroupCol: "gs", XCol: "gd", YCol: "gt", Group: groupBuckets, X: dBuckets(3), Y: tBuckets, Rate: 0.6, Seed: seed ^ 4},

		// Order-dependent tabular sketches.
		&sketch.NextKSketch{Order: table.Asc("gd").Then("gi", false), Extra: []string{"gs"}, K: 25},
		&sketch.NextKSketch{Order: table.Asc("gs"), Extra: []string{"gd"}, K: 10, From: table.Row{table.StringValue(info.DictValues[len(info.DictValues)/2])}},
		&sketch.FindTextSketch{Col: "gs", Pattern: "w00", Kind: sketch.MatchSubstring, Order: table.Asc("gs").Then("gi", true), Extra: []string{"gd"}},
		&sketch.FindTextSketch{Col: "gs", Pattern: info.DictValues[0], Kind: sketch.MatchExact, CaseSensitive: true, Order: table.Asc("gt"), From: table.Row{table.Value{Kind: table.KindDate, I: (info.DateLo + info.DateHi) / 2}}},
		&sketch.QuantileSketch{Order: table.Asc("gd").Then("gs", true), Extra: []string{"gi"}, SampleSize: 48, Seed: seed ^ 5},

		// Heavy hitters: dictionary-coded and typed int64-keyed (int,
		// double, date, and the derived double gc).
		&sketch.MisraGriesSketch{Col: "gs", K: 8},
		&sketch.MisraGriesSketch{Col: "gi", K: 6},
		&sketch.MisraGriesSketch{Col: "gd", K: 5},
		&sketch.MisraGriesSketch{Col: "gt", K: 4},
		&sketch.MisraGriesSketch{Col: "gc", K: 6},
		&sketch.SampleHeavyHittersSketch{Col: "gs", K: 8, Rate: 0.5, Seed: seed ^ 6},

		// Preparation-phase sketches.
		&sketch.RangeSketch{Col: "gd"},
		&sketch.RangeSketch{Col: "gs"},
		&sketch.RangeSketch{Col: "gt"},
		&sketch.MomentsSketch{Col: "gd", K: 3},
		&sketch.DistinctCountSketch{Col: "gs"},
		&sketch.DistinctCountSketch{Col: "gi"},
		&sketch.DistinctBottomKSketch{Col: "gs", K: 16},
		&sketch.MetaSketch{},

		// Another NextK anchored past the numeric midpoint.
		&sketch.NextKSketch{Order: table.Asc("gd"), K: 15, From: table.Row{table.DoubleValue(mid)}},

		// Scan batching: a MultiSketch whose members span the interesting
		// merge semantics — an exact sketch, a merge-order-bounded one
		// (Misra–Gries), a seeded sampled one, and a preparation sketch
		// that reads the schema. Its oracle delegates to
		// each member's own contract, so the batched composite rides every
		// topology and wire path of the harness.
		mustMulti(
			&sketch.HistogramSketch{Col: "gi", Buckets: iBuckets},
			&sketch.MisraGriesSketch{Col: "gs", K: 7},
			&sketch.HistogramSketch{Col: "gd", Buckets: dBuckets(8), Rate: 0.5, Seed: seed ^ 8},
			&sketch.RangeSketch{Col: "gt"},
		),
	}
}

// intZoom is the geometry a zoom into the int column produces: a
// fractional sub-range of [IntLo, IntHi]. Over the small int domains its
// integers get a slot table (sketch.BucketSpec.BatchIndexer) and the
// stored values outside it, masked or not, take the bucket arithmetic;
// over the 2⁴⁰ domain it divides.
func intZoom(info table.GenInfo) sketch.BucketSpec {
	cut := float64((info.IntHi-info.IntLo)/8) + 0.5
	return sketch.NumericBuckets(table.KindInt, float64(info.IntLo)+cut, float64(info.IntHi)-cut, 6)
}

// mustMulti builds a MultiSketch instance or panics; harness instances
// are statically valid.
func mustMulti(members ...sketch.Sketch) *sketch.MultiSketch {
	ms, err := sketch.NewMultiSketch(members...)
	if err != nil {
		panic(err)
	}
	return ms
}
