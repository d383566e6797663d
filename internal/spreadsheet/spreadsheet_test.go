package spreadsheet

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

func init() { flights.Register() }

func testSheet(t *testing.T, rows int) (*Sheet, *View) {
	t.Helper()
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	s := New(root)
	v, err := s.Load(context.Background(), "fl", "flights:rows="+itoa(rows)+",parts=4,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	return s, v
}

// failFirst fails the first vizketch it is asked to run and runs the
// rest on root.
type failFirst struct {
	root   *engine.Root
	failed atomic.Bool
}

func (f *failFirst) RunSketch(ctx context.Context, id string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	if f.failed.CompareAndSwap(false, true) {
		return nil, errors.New("injected failure")
	}
	return f.root.RunSketch(ctx, id, sk, onPartial)
}

// TestFailedLoadFreesName: a load whose metadata query fails does not
// spend its name — the same load, retried, succeeds instead of
// answering "already defined".
func TestFailedLoadFreesName(t *testing.T) {
	ctx := context.Background()
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	s := NewWithRunner(root, &failFirst{root: root})
	const src = "flights:rows=1000,parts=2,seed=3"
	if _, err := s.Load(ctx, "m", src); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("first load: err = %v, want the injected failure", err)
	}
	v, err := s.Load(ctx, "m", src)
	if err != nil {
		t.Fatalf("retried load: %v", err)
	}
	if rows := v.cachedMeta().Rows; rows != 1000 {
		t.Fatalf("retried load has %d rows, want 1000", rows)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestLoadAndMeta(t *testing.T) {
	_, v := testSheet(t, 5000)
	if v.NumRows() != 5000 {
		t.Fatalf("rows = %d", v.NumRows())
	}
	if v.Schema().ColumnIndex("Carrier") < 0 {
		t.Error("schema missing Carrier")
	}
	if _, err := v.kindOf(context.Background(), "DepDelay"); err != nil {
		t.Error(err)
	}
}

func TestTabularPagingRoundTrip(t *testing.T) {
	_, v := testSheet(t, 3000)
	ctx := context.Background()
	order := table.Asc("Distance").Then("FlightNum", true)
	extra := []string{"Carrier"}

	page1, err := v.TableView(ctx, order, extra, 15, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Rows) != 15 {
		t.Fatalf("page1 rows = %d", len(page1.Rows))
	}
	page2, err := v.NextPage(ctx, order, extra, page1)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Rows) == 0 {
		t.Fatal("page2 empty")
	}
	cmp := order.RowComparator()
	if cmp(page2.Rows[0][:2], page1.Rows[len(page1.Rows)-1][:2]) <= 0 {
		t.Error("page2 must start after page1")
	}
	// Page back: we should see page-1 rows again (the tail of them).
	back, err := v.PrevPage(ctx, order, extra, page2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) == 0 {
		t.Fatal("back page empty")
	}
	if !back.Rows[len(back.Rows)-1].Equal(page1.Rows[len(page1.Rows)-1]) {
		t.Error("paging back did not return to page 1's last row")
	}
	// Rows are in forward order after the flip.
	for i := 1; i < len(back.Rows); i++ {
		if cmp(back.Rows[i-1], back.Rows[i]) > 0 {
			t.Fatal("PrevPage result not in forward order")
		}
	}
}

// TestPagingVisitsEveryRowOnce pages through tie-heavy orders — a lead
// that is missing on cancelled flights, a 3-valued lead under a filter,
// a descending string lead — forward to the end and back to the start.
// Each direction must show every row exactly once, with Before counting
// the rows of the pages behind it, and paging back from a page must
// return the page before it.
func TestPagingVisitsEveryRowOnce(t *testing.T) {
	_, v := testSheet(t, 3000)
	ctx := context.Background()
	q1, err := v.FilterExpr(ctx, "Month <= 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		view  *View
		order table.RecordOrder
		extra []string
	}{
		{"missing-lead", v, table.Asc("DepDelay"), []string{"Carrier", "Origin"}},
		{"three-valued-lead", q1, table.Asc("Month"), []string{"Carrier", "Origin"}},
		{"three-valued-desc", q1, table.Desc("Month").Then("Carrier", true), []string{"DayOfWeek"}},
		{"string-lead", v, table.Desc("Carrier"), []string{"Dest"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.view.NumRows()
			keyCmp := pageOrder(tc.order, tc.extra).RowComparator()
			checkPage := func(p *sketch.NextKList, before int64) {
				t.Helper()
				if p.Before != before || p.Total != n {
					t.Fatalf("Before/Total = %d/%d, want %d/%d", p.Before, p.Total, before, n)
				}
				for i := 1; i < len(p.Rows); i++ {
					if keyCmp(p.Rows[i-1], p.Rows[i]) >= 0 {
						t.Fatalf("page rows out of order: %v then %v", p.Rows[i-1], p.Rows[i])
					}
				}
			}
			var pages []*sketch.NextKList
			var seen int64
			p, err := tc.view.TableView(ctx, tc.order, tc.extra, 25, nil, nil)
			for ; err == nil && len(p.Rows) > 0; p, err = tc.view.NextPage(ctx, tc.order, tc.extra, p) {
				checkPage(p, seen)
				if len(pages) > 0 {
					last := pages[len(pages)-1]
					if keyCmp(last.Rows[len(last.Rows)-1], p.Rows[0]) >= 0 {
						t.Fatal("a page does not start after the page before it")
					}
				}
				seen += sumCounts(p)
				pages = append(pages, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			if seen != n {
				t.Fatalf("paging forward showed %d of %d rows", seen, n)
			}
			seen = 0
			p = pages[len(pages)-1]
			for i := len(pages) - 1; len(p.Rows) > 0; i-- {
				seen += sumCounts(p)
				checkPage(p, n-seen)
				if i >= 0 && !reflect.DeepEqual(p, pages[i]) {
					t.Fatalf("paging back to page %d:\n got %+v\nwant %+v", i, p, pages[i])
				}
				if p, err = tc.view.PrevPage(ctx, tc.order, tc.extra, p); err != nil {
					t.Fatal(err)
				}
			}
			if seen != n {
				t.Fatalf("paging backward showed %d of %d rows", seen, n)
			}
		})
	}
}

func TestScroll(t *testing.T) {
	_, v := testSheet(t, 4000)
	ctx := context.Background()
	order := table.Asc("Distance")
	mid, err := v.Scroll(ctx, order, nil, 10, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Rows) == 0 {
		t.Fatal("scroll returned nothing")
	}
	// The page should start around the median: Before ≈ half of Total.
	frac := float64(mid.Before) / float64(mid.Total)
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("scroll(0.5) landed at rank %.2f", frac)
	}
	// Scroll to the top behaves like the first page.
	top, err := v.Scroll(ctx, order, nil, 10, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if top.Before > mid.Before {
		t.Error("scroll(0) should land before scroll(0.5)")
	}
}

func TestFindFlow(t *testing.T) {
	_, v := testSheet(t, 3000)
	ctx := context.Background()
	order := table.Asc("FlightDate").Then("FlightNum", true)
	res, err := v.Find(ctx, "Origin", "sfo", sketch.MatchExact, false, order, []string{"Origin"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match == nil {
		t.Fatal("SFO not found")
	}
	// Find-next advances.
	res2, err := v.Find(ctx, "Origin", "sfo", sketch.MatchExact, false, order, []string{"Origin"}, res.Match[:len(order)])
	if err != nil {
		t.Fatal(err)
	}
	if res2.Match != nil && order.RowComparator()(res2.Match, res.Match) <= 0 {
		t.Error("find-next did not advance")
	}
	if res2.MatchesBefore == 0 {
		t.Error("MatchesBefore should count the first hit")
	}
}

// recordingRunner runs on the root and keeps every sketch it was handed
// — the members of a group, not the MultiSketch that carried them — and
// how many queries they arrived as.
type recordingRunner struct {
	root    *engine.Root
	mu      sync.Mutex
	seen    []sketch.Sketch
	queries int
}

func (r *recordingRunner) RunSketch(ctx context.Context, id string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error) {
	r.mu.Lock()
	r.queries++
	members, _ := sketch.MembersOf(sk)
	r.seen = append(r.seen, members...)
	r.mu.Unlock()
	return r.root.RunSketch(ctx, id, sk, onPartial)
}

// TestHistogramTwoPhase holds the planner to its rule on both sides of
// the crossover: the seeded sketches always run, at target/rows below
// sketch.HistogramExactAboveRate — the rate, seeds and therefore bits
// they always had — and at 1 from there up, where the answer is the
// deterministic streaming histogram's.
func TestHistogramTwoPhase(t *testing.T) {
	const width = 120
	for _, tc := range []struct {
		name                string
		rows, height, bars  int
		histExact, cdfExact bool
	}{
		{"small table", 30000, 30, 40, true, true},
		{"default geometry", 30000, DefaultHeight, DefaultBars, true, true},
		{"just past the crossover", 90000, 30, 40, true, false},    // 18421 bar samples ≥ 0.2·90k > 16579 CDF samples
		{"just below the crossover", 100000, 30, 40, false, false}, // 18421 < 0.2·100k
		{"bar floor binds", 100000, 30, 50, true, false},           // 100·bars·ln(1/δ) = 23026 ≥ 0.2·100k
		{"large table", 200000, 40, 20, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
			rec := &recordingRunner{root: root}
			v, err := NewWithRunner(root, rec).Load(ctx, "fl", "flights:rows="+itoa(tc.rows)+",parts=4,seed=11")
			if err != nil {
				t.Fatal(err)
			}
			rec.seen, rec.queries = nil, 0
			var lastPartial sketch.Result
			opts := ChartOptions{Bars: tc.bars, Height: tc.height, Width: width, WithCDF: true,
				OnPartial: func(p engine.Partial) { lastPartial = p.Result }}
			hv, err := v.Histogram(ctx, "DepDelay", opts)
			if err != nil {
				t.Fatal(err)
			}
			// The gesture is two queries: the range, then bars and CDF as
			// one group, whose partials reach the caller as the bars'.
			if rec.queries != 2 {
				t.Errorf("histogram + CDF went down as %d queries, want 2", rec.queries)
			}
			if !reflect.DeepEqual(lastPartial, sketch.Result(hv.Hist)) {
				t.Errorf("last partial is %T, want the bars' final summary", lastPartial)
			}
			if hv.Hist == nil || hv.CDF == nil || hv.Range == nil {
				t.Fatal("incomplete histogram view")
			}
			if len(hv.Hist.Counts) != tc.bars || len(hv.CDF.Counts) != width {
				t.Errorf("%d bars, %d CDF pixels", len(hv.Hist.Counts), len(hv.CDF.Counts))
			}
			if hv.Hist.OutOfRange != 0 {
				t.Errorf("range-prepared histogram saw %d out-of-range rows", hv.Hist.OutOfRange)
			}

			// What the planner must have named: the seeds are the sheet's
			// first and second, the sampled rates target/rows — the parent
			// tree's formulas, spelled out so a change to either shows here.
			cdfSpec := sketch.NumericBuckets(hv.Buckets.Kind, hv.Buckets.Min, hv.Buckets.Max, width)
			histRate, cdfRate := 1.0, 1.0
			if !tc.histExact {
				histRate = float64(sketch.HistogramSampleSize(tc.bars, tc.height, DefaultDelta)) / float64(tc.rows)
			}
			if !tc.cdfExact {
				cdfRate = float64(sketch.CDFSampleSize(tc.height, DefaultDelta)) / float64(tc.rows)
			}
			seed1 := uint64(0x9e3779b97f4a7c15)
			wantHist := &sketch.HistogramSketch{Col: "DepDelay", Buckets: hv.Buckets, Rate: histRate, Seed: seed1}
			wantCDF := &sketch.HistogramSketch{Col: "DepDelay", Buckets: cdfSpec, Rate: cdfRate, Seed: 2 * seed1}
			planned := map[string]bool{}
			for _, sk := range rec.seen {
				planned[sk.Name()] = true
			}
			ds, err := root.Get("fl")
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				got    *sketch.Histogram
				want   sketch.Sketch
				exact  bool
				direct sketch.Sketch // what an exact plan must equal
			}{
				{hv.Hist, wantHist, tc.histExact, &sketch.HistogramSketch{Col: "DepDelay", Buckets: hv.Buckets}},
				{hv.CDF, wantCDF, tc.cdfExact, &sketch.HistogramSketch{Col: "DepDelay", Buckets: cdfSpec}},
			} {
				if !planned[c.want.Name()] {
					t.Errorf("planner did not run %s; ran %v", c.want.Name(), planned)
				}
				if (c.got.SampleRate == 1) != c.exact {
					t.Errorf("%s: SampleRate %g, exact planned %v", c.want.Name(), c.got.SampleRate, c.exact)
				}
				if !c.exact {
					c.direct = c.want
				}
				direct, err := ds.Sketch(ctx, c.direct, nil) // below the cache
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.got, direct) {
					t.Errorf("planned result differs from a direct run of %s", c.direct.Name())
				}
			}
			// The preparation range is cached: a second histogram reuses it.
			hits0, _ := root.Cache().Stats()
			if _, err := v.Histogram(ctx, "DepDelay", ChartOptions{Bars: 20}); err != nil {
				t.Fatal(err)
			}
			if hits1, _ := root.Cache().Stats(); hits1 <= hits0 {
				t.Error("second histogram did not hit the range cache")
			}
		})
	}
}

// TestHistogramExactOption: Exact overrides the planner on a table large
// enough to sample, and names the seedless streaming histogram for the
// bars and for the CDF, so a repeat is three cache hits — range, bars,
// CDF — and no scan.
func TestHistogramExactOption(t *testing.T) {
	s, v := testSheet(t, 200000)
	ctx := context.Background()
	opts := ChartOptions{Bars: 10, Height: 40, Exact: true, WithCDF: true}
	ev, err := v.Histogram(ctx, "DepDelay", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*sketch.Histogram{ev.Hist, ev.CDF} {
		if h.SampleRate != 1 || h.TotalCount()+h.Missing != 200000 {
			t.Errorf("exact histogram: rate %g, %d rows accounted", h.SampleRate, h.TotalCount()+h.Missing)
		}
	}
	hits0, misses0 := s.Root().Cache().Stats()
	again, err := v.Histogram(ctx, "DepDelay", opts)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := s.Root().Cache().Stats()
	if hits1-hits0 != 3 || misses1 != misses0 {
		t.Errorf("exact repeat: %d hits, %d misses, want 3 and 0", hits1-hits0, misses1-misses0)
	}
	if !reflect.DeepEqual(again, ev) {
		t.Error("cached repeat differs")
	}
	if sampled, err := v.Histogram(ctx, "DepDelay", ChartOptions{Bars: 10, Height: 40}); err != nil || sampled.Hist.SampleRate >= 1 {
		t.Errorf("200k rows at 40 px should sample (rate %v, err %v)", sampled.Hist.SampleRate, err)
	}
}

// TestChartPreparesAxesTogether: the preparation of a two- or three-axis
// chart is one query — a group of the axes' range / bottom-k sketches, so
// a first-touch heat map is one pass over two columns, not two passes —
// and a repeat finds every one of them in the cache.
func TestChartPreparesAxesTogether(t *testing.T) {
	ctx := context.Background()
	root := engine.NewRoot(storage.NewLoader(engine.Config{AggregationWindow: -1}, 0, nil))
	rec := &recordingRunner{root: root}
	v, err := NewWithRunner(root, rec).Load(ctx, "fl", "flights:rows=20000,parts=4,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		axes []string
		draw func() error
	}{
		{"heatmap", []string{"range(DepDelay)", "range(Distance)"}, func() error {
			_, err := v.Heatmap(ctx, "DepDelay", "Distance", ChartOptions{})
			return err
		}},
		{"trellis", []string{"Carrier", "range(ArrDelay)", "range(AirTime)"}, func() error {
			_, err := v.Trellis(ctx, "Carrier", "ArrDelay", "AirTime", 4, ChartOptions{})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec.seen, rec.queries = nil, 0
			_, misses0 := root.Cache().Stats()
			if err := tc.draw(); err != nil {
				t.Fatal(err)
			}
			if rec.queries != 2 || len(rec.seen) != len(tc.axes)+1 {
				t.Fatalf("first touch: %d queries carrying %d sketches, want 2 (preparation, rendering) carrying %d", rec.queries, len(rec.seen), len(tc.axes)+1)
			}
			for i, want := range tc.axes {
				if got := rec.seen[i].Name(); !strings.Contains(got, want) {
					t.Errorf("preparation member %d is %s, want %s", i, got, want)
				}
			}
			if _, misses := root.Cache().Stats(); misses-misses0 != int64(len(tc.axes)) {
				t.Errorf("first touch counted %d misses, want one per axis (%d)", misses-misses0, len(tc.axes))
			}
			hits0, misses0 := root.Cache().Stats()
			if err := tc.draw(); err != nil {
				t.Fatal(err)
			}
			if hits, misses := root.Cache().Stats(); hits-hits0 != int64(len(tc.axes)) || misses != misses0 {
				t.Errorf("repeat: %d hits, %d misses, want %d and 0", hits-hits0, misses-misses0, len(tc.axes))
			}
		})
	}
}

func TestHistogramOnStrings(t *testing.T) {
	_, v := testSheet(t, 10000)
	hv, err := v.Histogram(context.Background(), "Carrier", ChartOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if !hv.Buckets.ExactValues {
		t.Error("20 carriers should get exact per-value buckets")
	}
	if hv.Buckets.Count != len(flights.Carriers) {
		t.Errorf("buckets = %d", hv.Buckets.Count)
	}
	// Zipf: first carrier dominates.
	if hv.Hist.Counts[hv.Buckets.IndexString("WN")] != hv.Hist.MaxCount() {
		t.Error("WN should dominate")
	}
}

func TestStackedAndHeatmapAndTrellis(t *testing.T) {
	_, v := testSheet(t, 20000)
	ctx := context.Background()
	st, err := v.StackedHistogram(ctx, "DepDelay", "Carrier", false, ChartOptions{Bars: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.X.Count != 20 || st.Result.Y.Count == 0 {
		t.Errorf("stacked geometry %dx%d", st.Result.X.Count, st.Result.Y.Count)
	}
	norm, err := v.StackedHistogram(ctx, "DepDelay", "Carrier", true, ChartOptions{Bars: 20})
	if err != nil {
		t.Fatal(err)
	}
	if norm.Result.SampleRate != 1 {
		t.Error("normalized stacked histogram must not sample")
	}
	hm, err := v.Heatmap(ctx, "DepDelay", "Distance", ChartOptions{Width: 300, Height: 150})
	if err != nil {
		t.Fatal(err)
	}
	if hm.Result.X.Count != 100 || hm.Result.Y.Count != 50 {
		t.Errorf("heatmap bins %dx%d", hm.Result.X.Count, hm.Result.Y.Count)
	}
	tr, err := v.Trellis(ctx, "Carrier", "DepDelay", "Distance", 4, ChartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Result.Plots) == 0 {
		t.Error("empty trellis")
	}
}

func TestFilterZoomDerive(t *testing.T) {
	_, v := testSheet(t, 10000)
	ctx := context.Background()
	ua, err := v.FilterExpr(context.Background(), `Carrier == "UA"`)
	if err != nil {
		t.Fatal(err)
	}
	if ua.NumRows() == 0 || ua.NumRows() >= v.NumRows() {
		t.Errorf("UA filter rows = %d of %d", ua.NumRows(), v.NumRows())
	}
	zoomed, err := v.Zoom(context.Background(), "DepDelay", 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	hv, err := zoomed.Histogram(ctx, "DepDelay", ChartOptions{Exact: true, Bars: 10})
	if err != nil {
		t.Fatal(err)
	}
	if hv.Range.Min < 0 || hv.Range.Max > 60 {
		t.Errorf("zoom range [%g, %g]", hv.Range.Min, hv.Range.Max)
	}
	derived, err := v.DeriveColumn(context.Background(), "Slack", "ArrDelay - DepDelay")
	if err != nil {
		t.Fatal(err)
	}
	if derived.Schema().ColumnIndex("Slack") < 0 {
		t.Error("derived column missing from schema")
	}
	if _, err := derived.ColumnSummary(ctx, "Slack"); err != nil {
		t.Error(err)
	}
	// Derivation chains survive engine-level replay.
	derived.sheet.root.DropAll()
	if _, err := derived.Histogram(ctx, "Slack", ChartOptions{Exact: true, Bars: 5}); err != nil {
		t.Fatalf("replayed derived histogram: %v", err)
	}
}

func TestAnalyses(t *testing.T) {
	_, v := testSheet(t, 20000)
	ctx := context.Background()
	hh, err := v.HeavyHitters(ctx, "Carrier", 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh) == 0 || hh[0].Value.S != "WN" {
		t.Errorf("heavy hitters = %+v", hh)
	}
	hhs, err := v.HeavyHitters(ctx, "Carrier", 10, true)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hhs {
		if h.Value.S == "WN" {
			found = true
		}
	}
	if !found {
		t.Error("sampled heavy hitters missed WN")
	}
	dc, err := v.DistinctCount(ctx, "Carrier")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dc-float64(len(flights.Carriers))) > 2 {
		t.Errorf("distinct carriers = %v", dc)
	}
	ms, err := v.ColumnSummary(ctx, "Distance")
	if err != nil {
		t.Fatal(err)
	}
	if ms.Count == 0 || ms.Min < 0 || ms.Max <= ms.Min {
		t.Errorf("summary = %+v", ms)
	}
}

func TestSaveCSV(t *testing.T) {
	_, v := testSheet(t, 1000)
	checkSaveCSV(t, v, 4)
}

// TestSaveCSVOverTCPCluster runs the save vizketch on the workers' side
// of the wire: two replicas of one partition group on loopback write one
// file per partition between them, and the same cluster answers the
// next query. (Two groups would write colliding files here: partition
// IDs repeat across groups, and both groups share this host's disk.)
func TestSaveCSVOverTCPCluster(t *testing.T) {
	cfg := engine.Config{AggregationWindow: -1}
	addrs := make([]string, 2)
	for i := range addrs {
		w := cluster.NewWorker(storage.NewLoader(cfg, 0, nil))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = addr
	}
	clu, err := cluster.ConnectOptions(nil, addrs, cfg, cluster.Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	v, err := New(engine.NewRoot(clu.Loader())).Load(context.Background(), "fl", "flights:rows=2000,parts=4,seed=5")
	if err != nil {
		t.Fatal(err)
	}
	checkSaveCSV(t, v, 4)
	if _, err := v.HeavyHitters(context.Background(), "Origin", 10, false); err != nil {
		t.Fatalf("query after save: %v", err)
	}
}

// checkSaveCSV saves a filtered copy of v and checks that it wrote one
// file per partition and that the files reload to the view's rows.
func checkSaveCSV(t *testing.T, v *View, partitions int) {
	t.Helper()
	ua, err := v.FilterExpr(context.Background(), `Carrier == "UA"`)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "out")
	if err := ua.SaveCSV(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != partitions {
		t.Fatalf("wrote %d files, want one per partition (%d)", len(entries), partitions)
	}
	// Files reload to the same number of rows.
	var total int
	for _, e := range entries {
		tt, err := storage.ReadCSV(filepath.Join(dir, e.Name()), "back", nil)
		if err != nil {
			t.Fatal(err)
		}
		total += tt.NumRows()
	}
	if int64(total) != ua.NumRows() {
		t.Errorf("saved %d rows, view has %d", total, ua.NumRows())
	}
}

func TestErrorPaths(t *testing.T) {
	_, v := testSheet(t, 100)
	ctx := context.Background()
	if _, err := v.Histogram(ctx, "NoSuchCol", ChartOptions{}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := v.FilterExpr(context.Background(), "syntax("); err == nil {
		t.Error("bad filter should fail")
	}
	if _, err := v.Zoom(context.Background(), "Carrier", 0, 1); err == nil {
		t.Error("zoom on string column should fail")
	}
	s := New(engine.NewRoot(storage.NewLoader(engine.Config{}, 0, nil)))
	if _, err := s.Load(context.Background(), "x", "nosuch:source"); err == nil {
		t.Error("bad source should fail")
	}
	if !strings.Contains((&storage.SaveSketch{Dir: "/x"}).Name(), "save") {
		t.Error("save sketch name")
	}
}
