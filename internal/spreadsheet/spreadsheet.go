// Package spreadsheet is Hillview's user-facing layer: tabular views
// with multi-column sorting, paging, scroll-bar quantiles, free-text
// search, charts with two-phase execution (preparation computes ranges
// and sampling rates, rendering runs the vizketch), filtering and zoom,
// derived columns, trellis plots and heavy hitters (paper §3, §5.3).
//
// Every operation maps to one or more vizketches executed through the
// engine root (paper §7.3: vizketches "are the sole way to access data
// in the system"); the package contains no other data path.
package spreadsheet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/table"
)

// Defaults for display geometry (the vizketch parameters derive from
// these, per §4.2).
const (
	// DefaultWidth is the chart width in pixels.
	DefaultWidth = 600
	// DefaultHeight is the chart height in pixels.
	DefaultHeight = 200
	// DefaultBars bounds histogram bars (≈100 per §1).
	DefaultBars = 50
	// DefaultColors is the number of discernible color shades (≈20).
	DefaultColors = 20
	// DefaultRows is the tabular page size.
	DefaultRows = 20
	// DefaultDelta is the error probability δ for sampled vizketches.
	DefaultDelta = 0.01
	// HeatmapCell is the pixel size b of a heat map bin (2–3 px).
	HeatmapCell = 3
)

// Runner executes vizketches for a sheet. *engine.Root satisfies it
// directly; a serving-layer scheduler (internal/serve) satisfies it too,
// which is how admission control, deadlines, and single-flight dedup
// interpose on every query without the spreadsheet knowing.
type Runner interface {
	RunSketch(ctx context.Context, datasetID string, sk sketch.Sketch, onPartial engine.PartialFunc) (sketch.Result, error)
}

// Sheet is a spreadsheet session over an engine root.
type Sheet struct {
	root   *engine.Root
	run    Runner
	seq    atomic.Uint64
	seedSq atomic.Uint64
}

// New wraps an engine root; queries run directly on it.
func New(root *engine.Root) *Sheet {
	return &Sheet{root: root, run: root}
}

// NewWithRunner wraps an engine root but executes every vizketch
// through run (structural operations — load, filter, derive — still go
// to the root, which owns the redo log).
func NewWithRunner(root *engine.Root, run Runner) *Sheet {
	return &Sheet{root: root, run: run}
}

// Root exposes the underlying engine root.
func (s *Sheet) Root() *engine.Root { return s.root }

// nextID mints a fresh derived-dataset identifier.
func (s *Sheet) nextID(kind string) string {
	return fmt.Sprintf("%s-%d", kind, s.seq.Add(1))
}

// nextSeed mints a seed for a randomized vizketch; the engine logs the
// sketch (with its seed) implicitly through determinism of replay.
func (s *Sheet) nextSeed() uint64 {
	return 0x9e3779b97f4a7c15 * s.seedSq.Add(1)
}

// View is one table view (a loaded dataset or a derived selection).
// Its metadata is a per-generation fact: streaming ingestion grows a
// dataset in place, so the cached schema and row count are re-fetched
// whenever the dataset's generation has advanced.
type View struct {
	sheet *Sheet
	id    string

	mu   sync.Mutex
	meta *sketch.TableMeta
	gen  uint64
}

// Load opens a dataset from a storage source and returns its root view.
// A load whose metadata query fails leaves the name undefined, so the
// same load can be retried.
func (s *Sheet) Load(ctx context.Context, name, source string) (*View, error) {
	if _, err := s.root.Load(name, source); err != nil {
		return nil, err
	}
	v, err := s.view(ctx, name)
	if err != nil {
		s.root.Undefine(name)
		return nil, err
	}
	return v, nil
}

// view builds a View and fetches its metadata.
func (s *Sheet) view(ctx context.Context, id string) (*View, error) {
	v := &View{sheet: s, id: id}
	if _, err := v.metaAt(ctx); err != nil {
		return nil, err
	}
	return v, nil
}

// metaAt returns the view's metadata for the dataset's current
// generation, re-running the (cacheable) meta sketch after the dataset
// has grown.
func (v *View) metaAt(ctx context.Context) (*sketch.TableMeta, error) {
	gen := v.sheet.root.DatasetGeneration(v.id)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.meta != nil && gen == v.gen {
		return v.meta, nil
	}
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.MetaSketch{}, nil)
	if err != nil {
		return nil, err
	}
	v.meta, v.gen = res.(*sketch.TableMeta), gen
	return v.meta, nil
}

// cachedMeta returns the last fetched metadata without refreshing.
func (v *View) cachedMeta() *sketch.TableMeta {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.meta
}

// ID returns the view's dataset identifier.
func (v *View) ID() string { return v.id }

// Schema returns the view schema (nil while the dataset has no rows).
func (v *View) Schema() *table.Schema {
	m, err := v.metaAt(context.Background())
	if err != nil {
		m = v.cachedMeta()
	}
	return m.Schema
}

// NonEmptySchema returns the view schema, or an error while the dataset
// has no rows (an ingest dataset before its first seal has no schema to
// report).
func (v *View) NonEmptySchema() (*table.Schema, error) {
	if s := v.Schema(); s != nil {
		return s, nil
	}
	return nil, v.noRows()
}

// noRows is the error of a query over a dataset that has no rows yet.
func (v *View) noRows() error { return fmt.Errorf("dataset %q holds no rows yet", v.id) }

// NumRows returns the total row count.
func (v *View) NumRows() int64 {
	m, err := v.metaAt(context.Background())
	if err != nil {
		m = v.cachedMeta()
	}
	return m.Rows
}

// kindOf resolves a column kind.
func (v *View) kindOf(ctx context.Context, col string) (table.Kind, error) {
	m, err := v.metaAt(ctx)
	if err != nil {
		return table.KindNone, err
	}
	if m.Schema == nil {
		return table.KindNone, v.noRows()
	}
	cd, err := m.Schema.Column(col)
	if err != nil {
		return table.KindNone, err
	}
	return cd.Kind, nil
}

// --- Selection and derivation (paper §5.6) ---

// FilterExpr derives a view keeping rows that satisfy the predicate
// expression.
func (v *View) FilterExpr(ctx context.Context, predicate string) (*View, error) {
	id := v.sheet.nextID("filter")
	if _, err := v.sheet.root.Filter(v.id, id, predicate); err != nil {
		return nil, err
	}
	return v.sheet.view(ctx, id)
}

// Zoom derives a view restricted to a numeric range — the chart
// mouse-selection zoom.
func (v *View) Zoom(ctx context.Context, col string, min, max float64) (*View, error) {
	id := v.sheet.nextID("zoom")
	if _, err := v.sheet.root.Apply(v.id, id, engine.FilterRangeOp{Col: col, Min: min, Max: max}); err != nil {
		return nil, err
	}
	return v.sheet.view(ctx, id)
}

// DeriveColumn derives a view with an extra column, the expression
// evaluated once per row and stored.
func (v *View) DeriveColumn(ctx context.Context, name, expression string) (*View, error) {
	id := v.sheet.nextID("derive")
	if _, err := v.sheet.root.Derive(v.id, id, name, expression); err != nil {
		return nil, err
	}
	return v.sheet.view(ctx, id)
}

// --- Tabular views (paper §3.3) ---

// TableView fetches the K distinct rows after `from` (nil = start) in
// the given order, with duplicate counts and scroll position.
func (v *View) TableView(ctx context.Context, order table.RecordOrder, extra []string, k int, from table.Row, onPartial engine.PartialFunc) (*sketch.NextKList, error) {
	if k <= 0 {
		k = DefaultRows
	}
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.NextKSketch{Order: order, Extra: extra, K: k, From: from}, onPartial)
	if err != nil {
		return nil, err
	}
	return res.(*sketch.NextKList), nil
}

// pageOrder is the whole key a page's rows are sorted by: order, then
// the extra columns ascending (next-K's tie-break). A cursor page runs on
// it with no extra columns, so its rows keep their layout and its cursor
// is a whole row: rows that tie the cursor on order alone are neither
// skipped nor shown twice.
func pageOrder(order table.RecordOrder, extra []string) table.RecordOrder {
	out := append(table.RecordOrder{}, order...)
	for _, c := range extra {
		out = append(out, table.ColumnSortOrder{Column: c, Ascending: true})
	}
	return out
}

// NextPage pages forward from the last row of the previous page.
func (v *View) NextPage(ctx context.Context, order table.RecordOrder, extra []string, prev *sketch.NextKList) (*sketch.NextKList, error) {
	if prev == nil || len(prev.Rows) == 0 {
		return v.TableView(ctx, order, extra, DefaultRows, nil, nil)
	}
	page, err := v.TableView(ctx, pageOrder(order, extra), nil, prev.K, prev.Rows[len(prev.Rows)-1].Clone(), nil)
	if err != nil {
		return nil, err
	}
	out := *page
	out.Order = order
	return &out, nil
}

// PrevPage pages backward: it is a forward page in the reversed order
// starting from the first visible row, with the result flipped (the
// trick §3.3's scrolling uses).
func (v *View) PrevPage(ctx context.Context, order table.RecordOrder, extra []string, cur *sketch.NextKList) (*sketch.NextKList, error) {
	if cur == nil || len(cur.Rows) == 0 {
		return v.TableView(ctx, order, extra, DefaultRows, nil, nil)
	}
	rev, err := v.TableView(ctx, pageOrder(order, extra).Reversed(), nil, cur.K, cur.Rows[0].Clone(), nil)
	if err != nil {
		return nil, err
	}
	// Flip back into forward order.
	out := &sketch.NextKList{Order: order, K: cur.K, Total: rev.Total, Before: rev.Total - rev.Before - sumCounts(rev)}
	for i := len(rev.Rows) - 1; i >= 0; i-- {
		out.Rows = append(out.Rows, rev.Rows[i])
		out.Counts = append(out.Counts, rev.Counts[i])
	}
	return out, nil
}

func sumCounts(l *sketch.NextKList) int64 {
	var n int64
	for _, c := range l.Counts {
		n += c
	}
	return n
}

// Scroll jumps to quantile q ∈ [0,1] of the sort order (the scroll bar,
// paper §4.3): a quantile vizketch finds the target row, then a next-K
// fetch renders the page starting there.
func (v *View) Scroll(ctx context.Context, order table.RecordOrder, extra []string, k int, q float64, pixels int) (*sketch.NextKList, error) {
	if pixels <= 0 {
		pixels = DefaultHeight
	}
	qs := &sketch.QuantileSketch{
		Order:      order,
		Extra:      extra,
		SampleSize: sketch.QuantileSampleSize(pixels, DefaultDelta),
		Seed:       v.sheet.nextSeed(),
	}
	res, err := v.sheet.run.RunSketch(ctx, v.id, qs, nil)
	if err != nil {
		return nil, err
	}
	row := res.(*sketch.SampleSet).Quantile(q, order)
	var from table.Row
	if row != nil {
		from = row[:len(order)].Clone()
	}
	return v.TableView(ctx, order, extra, k, from, nil)
}

// Find locates the next row matching a text criterion after `from`.
func (v *View) Find(ctx context.Context, col, pattern string, kind sketch.MatchKind, caseSensitive bool, order table.RecordOrder, extra []string, from table.Row) (*sketch.FindResult, error) {
	res, err := v.sheet.run.RunSketch(ctx, v.id, &sketch.FindTextSketch{
		Col: col, Pattern: pattern, Kind: kind, CaseSensitive: caseSensitive,
		Order: order, Extra: extra, From: from,
	}, nil)
	if err != nil {
		return nil, err
	}
	return res.(*sketch.FindResult), nil
}
