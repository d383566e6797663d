// Package flights generates a synthetic airline on-time performance
// dataset shaped like the one the paper evaluates on (§7 "Dataset": US
// DoT flight performance metrics, 130 M rows × 110 columns, with
// numerical, categorical, text, and undefined values).
//
// The real BTS data cannot ship with this repository, so the generator
// reproduces the properties the vizketches are sensitive to: column
// kinds, realistic value skew (Zipf-distributed carriers and airports,
// heavy-tailed delays), missing values (cancellation codes, weather
// delays), and wide rows (padding columns bring the schema to the
// paper's 110 columns; they are computed lazily so width costs no
// memory until a query touches them — matching the paper's observation
// that vizketches touch few columns).
//
// Generation is deterministic in (seed, partition), which the engine's
// replay-based fault tolerance requires of every data source.
package flights

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"repro/internal/storage"
	"repro/internal/table"
)

// Carriers are the two-letter airline codes, most frequent first; the
// generator draws them from a Zipf distribution like real traffic.
var Carriers = []string{
	"WN", "AA", "DL", "UA", "US", "NW", "CO", "MQ", "OO", "XE",
	"EV", "AS", "B6", "FL", "OH", "9E", "YV", "F9", "HA", "AQ",
}

// States used for origin/destination state columns.
var states = []string{
	"CA", "TX", "FL", "NY", "IL", "GA", "CO", "AZ", "NC", "VA",
	"WA", "NV", "MI", "MN", "PA", "NJ", "OH", "MA", "MO", "UT",
	"TN", "MD", "OR", "KY", "LA", "HI", "IN", "WI", "OK", "SC",
	"AL", "AR", "KS", "NM", "IA", "NE", "MS", "ID", "CT", "ME",
	"MT", "NH", "RI", "SD", "ND", "WV", "WY", "VT", "AK", "DE",
}

// NumAirports is the number of distinct airports the generator knows.
const NumAirports = 340

// CoreColumns is the number of real (non-padding) columns.
const CoreColumns = 20

// PaperColumns is the paper's schema width.
const PaperColumns = 110

// airportCode returns the 3-letter code for airport i. Airport 0 is
// the busiest ("ATL"-like); codes are synthetic but stable.
func airportCode(i int) string {
	if i < len(realAirports) {
		return realAirports[i]
	}
	var b [3]byte
	for k := 2; k >= 0; k-- {
		b[k] = byte('A' + i%26)
		i /= 26
	}
	return "X" + string(b[1:])
}

var realAirports = []string{
	"ATL", "ORD", "DFW", "LAX", "DEN", "PHX", "IAH", "LAS", "DTW", "SFO",
	"EWR", "MCO", "MSP", "CLT", "SLC", "JFK", "LGA", "BOS", "SEA", "BWI",
	"PHL", "SAN", "MIA", "TPA", "DCA", "MDW", "STL", "HNL", "FLL", "OAK",
	"PDX", "SJC", "MCI", "CLE", "SMF", "SAT", "RDU", "IAD", "AUS", "MSY",
	"SNA", "PIT", "IND", "CMH", "BNA", "ABQ", "MKE", "OGG", "JAX", "ONT",
}

// airportState returns the state of airport i (stable assignment).
func airportState(i int) string { return states[i%len(states)] }

// Schema returns the flights schema with the given total column count
// (minimum CoreColumns; extra columns are integer padding).
func Schema(totalCols int) *table.Schema {
	cols := []table.ColumnDesc{
		{Name: "FlightDate", Kind: table.KindDate},
		{Name: "Year", Kind: table.KindInt},
		{Name: "Month", Kind: table.KindInt},
		{Name: "DayOfMonth", Kind: table.KindInt},
		{Name: "DayOfWeek", Kind: table.KindInt},
		{Name: "Carrier", Kind: table.KindString},
		{Name: "FlightNum", Kind: table.KindInt},
		{Name: "Origin", Kind: table.KindString},
		{Name: "OriginState", Kind: table.KindString},
		{Name: "Dest", Kind: table.KindString},
		{Name: "DestState", Kind: table.KindString},
		{Name: "CRSDepTime", Kind: table.KindInt},
		{Name: "DepTime", Kind: table.KindInt},
		{Name: "DepDelay", Kind: table.KindDouble},
		{Name: "ArrDelay", Kind: table.KindDouble},
		{Name: "TaxiOut", Kind: table.KindDouble},
		{Name: "AirTime", Kind: table.KindDouble},
		{Name: "Distance", Kind: table.KindDouble},
		{Name: "Cancelled", Kind: table.KindInt},
		{Name: "CancellationCode", Kind: table.KindString},
	}
	if len(cols) != CoreColumns {
		panic("flights: CoreColumns out of date")
	}
	for i := CoreColumns; i < totalCols; i++ {
		cols = append(cols, table.ColumnDesc{Name: fmt.Sprintf("Pad%03d", i-CoreColumns), Kind: table.KindInt})
	}
	return table.NewSchema(cols...)
}

// zipf draws Zipf(s≈1.1)-distributed indexes in [0, n) by inverse
// transform over the precomputed CDF.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

var (
	carrierZipf = newZipf(len(Carriers), 1.05)
	airportZipf = newZipf(NumAirports, 1.08)
)

// Gen generates n rows with the given id. totalCols pads the schema up
// to the requested width (0 means CoreColumns): the padding columns
// all read one stored int column of the partition.
func Gen(id string, n int, seed uint64, totalCols int) *table.Table {
	if totalCols < CoreColumns {
		totalCols = CoreColumns
	}
	core := Schema(CoreColumns)
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	b := table.NewBuilder(core, n)

	epoch := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	const days = 20 * 365
	row := make(table.Row, CoreColumns)
	for i := 0; i < n; i++ {
		day := rng.IntN(days)
		date := epoch.AddDate(0, 0, day)
		carrier := Carriers[carrierZipf.draw(rng.Float64())]
		origin := airportZipf.draw(rng.Float64())
		dest := airportZipf.draw(rng.Float64())
		for dest == origin {
			dest = airportZipf.draw(rng.Float64())
		}
		crsDep := 500 + rng.IntN(1080) // 05:00..22:59 in minutes
		crsHHMM := int64(crsDep/60*100 + crsDep%60)

		// Delays: most flights near schedule, a heavy exponential tail.
		depDelay := rng.NormFloat64()*5 - 2
		if rng.Float64() < 0.25 {
			depDelay += rng.ExpFloat64() * 30
		}
		if depDelay < -15 {
			depDelay = -15
		}
		arrDelay := depDelay + rng.NormFloat64()*10
		cancelled := int64(0)
		if rng.Float64() < 0.018 {
			cancelled = 1
		}

		// Distance depends deterministically on the airport pair.
		pair := uint64(origin*NumAirports + dest)
		distance := 150 + float64((pair*2654435761)%2800)
		airTime := distance/7.5 + rng.NormFloat64()*5

		row[0] = table.DateValue(date)
		row[1] = table.IntValue(int64(date.Year()))
		row[2] = table.IntValue(int64(date.Month()))
		row[3] = table.IntValue(int64(date.Day()))
		row[4] = table.IntValue(int64(date.Weekday()) + 1)
		row[5] = table.StringValue(carrier)
		row[6] = table.IntValue(int64(1 + rng.IntN(7999)))
		row[7] = table.StringValue(airportCode(origin))
		row[8] = table.StringValue(airportState(origin))
		row[9] = table.StringValue(airportCode(dest))
		row[10] = table.StringValue(airportState(dest))
		row[11] = table.IntValue(crsHHMM)
		if cancelled == 1 {
			row[12] = table.MissingValue(table.KindInt)
			row[13] = table.MissingValue(table.KindDouble)
			row[14] = table.MissingValue(table.KindDouble)
			row[15] = table.MissingValue(table.KindDouble)
			row[16] = table.MissingValue(table.KindDouble)
			row[19] = table.StringValue(string(rune('A' + rng.IntN(4))))
		} else {
			actual := crsDep + int(depDelay)
			if actual < 0 {
				actual = 0
			}
			row[12] = table.IntValue(int64(actual/60%24*100 + actual%60))
			row[13] = table.DoubleValue(round1(depDelay))
			row[14] = table.DoubleValue(round1(arrDelay))
			row[15] = table.DoubleValue(round1(5 + rng.ExpFloat64()*8))
			row[16] = table.DoubleValue(round1(airTime))
			row[19] = table.MissingValue(table.KindString)
		}
		row[17] = table.DoubleValue(distance)
		row[18] = table.IntValue(cancelled)
		b.AppendRow(row)
	}
	t := b.Freeze(id)
	if totalCols == CoreColumns {
		return t
	}
	// Padding is width without weight: every pad name shares one stored
	// column, 8 B a row however wide the schema.
	pad := make([]int64, n)
	mult := seed*0x9e3779b97f4a7c15 + 1
	for i := range pad {
		pad[i] = int64((uint64(i) * mult) % 1000)
	}
	padCol := table.NewIntColumn(table.KindInt, pad, nil)
	for c := CoreColumns; c < totalCols; c++ {
		var err error
		t, err = t.WithColumn(id, fmt.Sprintf("Pad%03d", c-CoreColumns), padCol)
		if err != nil {
			panic(err) // schema is generator-controlled
		}
	}
	return t
}

// GenPartitions generates totalRows rows split over parts partitions,
// each generated independently (and hence in parallel across workers)
// with deterministic per-partition seeds.
func GenPartitions(idPrefix string, totalRows, parts int, seed uint64, totalCols int) []*table.Table {
	if parts < 1 {
		parts = 1
	}
	out := make([]*table.Table, parts)
	per := totalRows / parts
	rem := totalRows % parts
	for p := 0; p < parts; p++ {
		n := per
		if p < rem {
			n++
		}
		out[p] = Gen(fmt.Sprintf("%s-p%d", idPrefix, p), n, seed+uint64(p)*1000003, totalCols)
	}
	return out
}

// Register installs the "flights" source scheme with the storage layer:
//
//	flights:rows=<n>,parts=<p>,cols=<c>,seed=<s>
//
// so the engine's redo log can reload synthetic data after a restart
// exactly as it reloads files.
func Register() {
	storage.RegisterScheme("flights", func(rest, id string, microRows int) ([]*table.Table, error) {
		rows, parts, cols, seed := 100000, 0, CoreColumns, uint64(1)
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("flights: bad source option %q", kv)
			}
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("flights: bad source option %q: %v", kv, err)
			}
			switch k {
			case "rows":
				rows = int(n)
			case "parts":
				parts = int(n)
			case "cols":
				cols = int(n)
			case "seed":
				seed = uint64(n)
			default:
				return nil, fmt.Errorf("flights: unknown source option %q", k)
			}
		}
		if parts == 0 {
			if microRows <= 0 {
				microRows = storage.DefaultMicroRows
			}
			parts = (rows + microRows - 1) / microRows
		}
		return GenPartitions(id, rows, parts, seed, cols), nil
	})
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }
