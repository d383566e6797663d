package sketch

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/table"
)

// TestRateOutsideUnitScansEveryRow pins the one reading of Rate that
// every sampling sketch shares (sampleRate): a rate that is not in
// (0, 1) — NaN off a crafted frame among them — scans every member row
// and reports SampleRate 1. A NaN rate used to reach the geometric
// skipper's int conversion and index out of range.
func TestRateOutsideUnitScansEveryRow(t *testing.T) {
	ix := NumericBuckets(table.KindInt, 0, 1000, 7)
	dx := NumericBuckets(table.KindDouble, 0, 1000, 5)
	sx := StringBucketsFromBounds([]string{"bee", "dog", "gnu"}, false)
	for _, tc := range eqTables(2000) {
		switch tc.name {
		case "full", "bitmap", "sparse":
		default:
			continue
		}
		members := int64(tc.t.Members().Size())
		for _, rate := range []float64{math.NaN(), -1, 0, 1, 2} {
			sketches := []Sketch{
				&HistogramSketch{Col: "i", Buckets: ix, Rate: rate, Seed: 3},
				&Histogram2DSketch{XCol: "d", YCol: "s", X: dx, Y: sx, Rate: rate, Seed: 3},
				&TrellisSketch{GroupCol: "s", XCol: "i", YCol: "d", Group: sx, X: ix, Y: dx, Rate: rate, Seed: 3},
				&SampleHeavyHittersSketch{Col: "s", K: 4, Rate: rate, Seed: 3},
			}
			for _, sk := range sketches {
				name := fmt.Sprintf("%s/rate=%g/%T", tc.name, rate, sk)
				res, err := sk.Summarize(tc.t)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var rows int64
				sampleRate := 1.0
				switch r := res.(type) {
				case *Histogram:
					rows, sampleRate = r.SampledRows, r.SampleRate
					if got := r.TotalCount() + r.Missing + r.OutOfRange; got != members {
						t.Errorf("%s: tallies sum to %d, want %d", name, got, members)
					}
				case *Histogram2D:
					rows, sampleRate = r.SampledRows, r.SampleRate
				case *Trellis:
					rows, sampleRate = r.SampledRows, r.SampleRate
				case *HeavyHitters:
					rows = r.ScannedRows
					var sum int64
					for _, c := range r.Counters {
						sum += c
					}
					if sum != members {
						t.Errorf("%s: counters sum to %d, want %d", name, sum, members)
					}
				}
				if rows != members || sampleRate != 1 {
					t.Errorf("%s: counted %d of %d rows at SampleRate %g, want every row at 1", name, rows, members, sampleRate)
				}
			}
		}
	}
}
