package sketch

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/table"
)

// HHItem is one heavy-hitter candidate with its (approximate) count.
type HHItem struct {
	Value table.Value
	Count int64
}

// HeavyHitters is the summary of both heavy-hitter vizketches: candidate
// values with approximate counts plus the totals needed to apply the
// frequency threshold at render time.
type HeavyHitters struct {
	K int
	// Counters maps candidate values to counts. For Misra–Gries these
	// are lower bounds with error ≤ ScannedRows/(K+1); for the sampling
	// sketch they are sample counts.
	Counters map[table.Value]int64
	// ScannedRows counts rows contributing to Counters (all member rows
	// for Misra–Gries, sampled rows for the sampling sketch).
	ScannedRows int64
	// Sampled is true for the sampling variant.
	Sampled bool
}

// Items returns candidates with count ≥ threshold, sorted by descending
// count (ties broken by value for determinism).
func (h *HeavyHitters) Items(threshold int64) []HHItem {
	items := make([]HHItem, 0, len(h.Counters))
	for v, c := range h.Counters {
		if c >= threshold {
			items = append(items, HHItem{Value: v, Count: c})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Count != items[j].Count {
			return items[i].Count > items[j].Count
		}
		return items[i].Value.Compare(items[j].Value) < 0
	})
	return items
}

// Hitters applies each sketch's standard decision rule and returns the
// selected heavy hitters. For Misra–Gries it returns values whose lower
// bound exceeds N/K minus the structural error; for sampling it applies
// the 3n/4K rule of Theorem 4.
func (h *HeavyHitters) Hitters() []HHItem {
	if h.K <= 0 || h.ScannedRows == 0 {
		return nil
	}
	if h.Sampled {
		return h.Items((3*h.ScannedRows + 4*int64(h.K) - 1) / (4 * int64(h.K)))
	}
	thr := h.ScannedRows/int64(h.K) - h.ScannedRows/int64(h.K+1)
	if thr < 1 {
		thr = 1
	}
	return h.Items(thr)
}

// MisraGriesSketch finds values occurring more than a 1/K fraction of
// the time with the Misra–Gries streaming algorithm (paper App. B.2
// "Heavy hitters (streaming)"), using the mergeable-summaries merge rule
// of Agarwal et al.
type MisraGriesSketch struct {
	Col string
	K   int
}

// Name implements Sketch.
func (s *MisraGriesSketch) Name() string { return fmt.Sprintf("misra-gries(%s,k=%d)", s.Col, s.K) }

// CacheKey implements Cacheable: Misra–Gries is deterministic.
func (s *MisraGriesSketch) CacheKey() string { return s.Name() }

// Zero implements Sketch.
func (s *MisraGriesSketch) Zero() Result {
	return &HeavyHitters{K: s.K, Counters: map[table.Value]int64{}}
}

// Summarize implements Sketch. Which rule runs depends on the column.
// A dictionary string column of at most mgDenseDictMax codes is tallied,
// not streamed: mgCodes counts every code exactly and reduces once with
// mgExcess, the prune Merge applies, so the summary is Merge(exact
// counts, Zero) — a function of the multiset of member values, not their
// order. Every other column streams the Misra–Gries update rule in
// Iterate order, bit-identical to the row-at-a-time reference scan:
// larger dictionaries keyed by code (mgCodes), int, date and double
// columns keyed by value bits (mgTyped). The decrement step pairs each
// decrement with a prior increment, so the stream is amortized O(rows).
// Either way the summary holds at most K counters, each a lower bound
// short by at most rows/(K+1) — the invariant Merge needs — and no
// allocation is sized by K alone: K arrives off the wire on workers.
func (s *MisraGriesSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	k := s.K
	if k < 1 {
		k = 1
	}
	if c, ok := col.(*table.StringColumn); ok {
		g := newMGCodes(k, c.DictSize())
		g.scan(t.Members(), c)
		return g.result(s.K, c.Dict()), nil
	}
	g := newMGTyped(k, col)
	g.scan(t.Members(), col)
	return g.result(s.K), nil
}

// mgDenseDictMax bounds the dictionary size for the dense code-keyed
// tally; larger dictionaries stream into an int32-keyed map so memory
// stays O(K), not O(dictionary).
const mgDenseDictMax = 1 << 12

// mgCodes is the Misra–Gries state of one dictionary column, keyed by
// code. Missing rows count under the reserved code missCode. Up to
// mgDenseDictMax codes it is an exact tally — dense[code]++ per row, no
// data-dependent branch — and result prunes it once to K counters with
// the rule Merge uses (mgExcess). Above that it streams the update rule
// step for step with the value-keyed reference scan (refMisraGries in
// batch_test.go), so after the code→Value conversion at result time the
// summary is bit-identical to that path.
type mgCodes struct {
	k        int
	missCode int32
	dense    []int64         // small dicts: exact counts indexed by code, missCode last
	m        map[int32]int64 // large dicts: code-keyed stream counters, missCode = -1
	rows     int64
}

func newMGCodes(k, dictSize int) *mgCodes {
	g := &mgCodes{k: k, missCode: int32(dictSize)}
	if dictSize <= mgDenseDictMax {
		g.dense = make([]int64, dictSize+1)
	} else {
		g.missCode = -1
		g.m = make(map[int32]int64, min(k, dictSize)+1)
	}
	return g
}

// stream is the Misra–Gries update rule: increment if counted, insert
// if a counter is free, otherwise decrement every counter and drop
// zeros.
func (g *mgCodes) stream(code int32) {
	if c, ok := g.m[code]; ok {
		g.m[code] = c + 1
		return
	}
	if len(g.m) < g.k {
		g.m[code] = 1
		return
	}
	for a, c := range g.m {
		if c <= 1 {
			delete(g.m, a)
		} else {
			g.m[a] = c - 1
		}
	}
}

// scan counts every member row's code, missing rows under missCode,
// in Iterate order: into the tally, or through stream. The tally of a
// span without missing rows is the hot loop and stands alone.
func (g *mgCodes) scan(m table.Membership, sc *table.StringColumn) {
	codes, miss, dense := sc.Codes(), sc.MissingMask(), g.dense
	scanBatches(m,
		func(a, b int) {
			g.rows += int64(b - a)
			if dense != nil && miss == nil {
				for _, code := range codes[a:b] {
					dense[code]++
				}
				return
			}
			for k, code := range codes[a:b] {
				if miss.Get(a + k) {
					code = g.missCode
				}
				if dense != nil {
					dense[code]++
				} else {
					g.stream(code)
				}
			}
		},
		func(rows []int32) {
			g.rows += int64(len(rows))
			for _, r := range rows {
				code := codes[r]
				if miss.Get(int(r)) {
					code = g.missCode
				}
				if dense != nil {
					dense[code]++
				} else {
					g.stream(code)
				}
			}
		})
}

// mgKey is the typed Misra–Gries counter key for numeric columns: the
// raw int64 value (or the IEEE bits of a double) plus a missing flag,
// since missing rows are a distinct stream symbol in the value-keyed
// reference scan. Hashing a 9-byte struct beats hashing a table.Value,
// whose string field drags every map operation through memory it never
// uses on numeric columns.
type mgKey struct {
	bits int64
	miss bool
}

// mgTyped is Misra–Gries keyed by int64 for stored numeric columns
// (ints, dates, doubles), mirroring the code-keyed dictionary path. The
// key is in bijection with table.Value map-key equality: -0.0
// normalizes to +0.0 because Go map keys compare floats with ==, under
// which the two zeros are one key. (NaN is the one divergence: the
// reference path can never look a NaN key up again, so every NaN row
// inserts a fresh counter, while bit keying folds equal-payload NaNs
// together. The generator-driven oracle never produces NaN; columns
// model absent data with missing bits.)
type mgTyped struct {
	k    int
	kind table.Kind
	m    map[mgKey]int64
	rows int64
}

func newMGTyped(k int, col table.Column) *mgTyped {
	return &mgTyped{k: k, kind: col.Kind(), m: make(map[mgKey]int64, min(k, col.Len())+1)}
}

// add runs the update rule for one occurrence of key: increment if
// counted, insert if a counter is free, otherwise decrement every
// counter and drop zeros.
func (g *mgTyped) add(key mgKey) {
	if c, ok := g.m[key]; ok {
		g.m[key] = c + 1
		return
	}
	if len(g.m) < g.k {
		g.m[key] = 1
		return
	}
	for u, c := range g.m {
		if c <= 1 {
			delete(g.m, u)
		} else {
			g.m[u] = c - 1
		}
	}
}

// doubleKey maps a float64 to its counter key, folding -0.0 into +0.0.
func doubleKey(v float64) mgKey {
	if v == 0 {
		v = 0
	}
	return mgKey{bits: int64(math.Float64bits(v))}
}

// scan feeds every member row's key to the update rule in Iterate
// order, reading the column's backing slice directly.
func (g *mgTyped) scan(m table.Membership, col table.Column) {
	missKey := mgKey{miss: true}
	switch c := col.(type) {
	case *table.IntColumn:
		vals, miss := c.Ints(), c.MissingMask()
		scanBatches(m,
			func(a, b int) {
				g.rows += int64(b - a)
				for k, v := range vals[a:b] {
					if miss.Get(a + k) {
						g.add(missKey)
					} else {
						g.add(mgKey{bits: v})
					}
				}
			},
			func(rows []int32) {
				g.rows += int64(len(rows))
				for _, r := range rows {
					if miss.Get(int(r)) {
						g.add(missKey)
					} else {
						g.add(mgKey{bits: vals[r]})
					}
				}
			})
	case *table.DoubleColumn:
		vals, miss := c.Doubles(), c.MissingMask()
		scanBatches(m,
			func(a, b int) {
				g.rows += int64(b - a)
				for k, v := range vals[a:b] {
					if miss.Get(a + k) {
						g.add(missKey)
					} else {
						g.add(doubleKey(v))
					}
				}
			},
			func(rows []int32) {
				g.rows += int64(len(rows))
				for _, r := range rows {
					if miss.Get(int(r)) {
						g.add(missKey)
					} else {
						g.add(doubleKey(vals[r]))
					}
				}
			})
	}
}

// result converts the typed counters to the value-keyed summary.
func (g *mgTyped) result(K int) *HeavyHitters {
	out := &HeavyHitters{K: K, Counters: make(map[table.Value]int64, len(g.m)), ScannedRows: g.rows}
	for key, c := range g.m {
		out.Counters[g.value(key)] = c
	}
	return out
}

// value materializes one counter key as the table.Value the reference
// scan would have used.
func (g *mgTyped) value(key mgKey) table.Value {
	switch {
	case key.miss:
		return table.MissingValue(g.kind)
	case g.kind == table.KindDouble:
		return table.DoubleValue(math.Float64frombits(uint64(key.bits)))
	default:
		return table.Value{Kind: g.kind, I: key.bits}
	}
}

// result converts the code-keyed state to the value-keyed summary. The
// dense tally keeps what Merge would keep of the exact counts: every
// count above the (k+1)-th largest, less that count.
func (g *mgCodes) result(K int, dict []string) *HeavyHitters {
	out := &HeavyHitters{K: K, Counters: map[table.Value]int64{}, ScannedRows: g.rows}
	valueOf := func(code int32) table.Value {
		if code == g.missCode {
			return table.MissingValue(table.KindString)
		}
		return table.Value{Kind: table.KindString, S: dict[code]}
	}
	if g.dense == nil {
		for code, c := range g.m {
			out.Counters[valueOf(code)] = c
		}
		return out
	}
	positive := make([]int64, 0, len(g.dense))
	for _, c := range g.dense {
		if c > 0 {
			positive = append(positive, c)
		}
	}
	sub := mgExcess(positive, g.k)
	for code, c := range g.dense {
		if c > sub {
			out.Counters[valueOf(int32(code))] = c - sub
		}
	}
	return out
}

// mgExcess is the prune of the mergeable-summaries rule (Agarwal et
// al.): when more than k counters are positive, the (k+1)-th largest
// count comes off every counter and only positive remainders stay,
// which leaves at most k counters and costs each at most that count —
// itself at most rows/(k+1). It returns the count to subtract, 0 when
// nothing needs pruning, and sorts counts in place.
func mgExcess(counts []int64, k int) int64 {
	if k <= 0 || len(counts) <= k {
		return 0
	}
	slices.Sort(counts)
	return counts[len(counts)-1-k]
}

// Merge implements Sketch: add counters pointwise, then prune with
// mgExcess, which preserves the N/(K+1) error bound.
func (s *MisraGriesSketch) Merge(a, b Result) (Result, error) {
	ha, hb, err := heavyArgs(a, b)
	if err != nil {
		return nil, err
	}
	out := &HeavyHitters{
		K:           s.K,
		Counters:    make(map[table.Value]int64, len(ha.Counters)+len(hb.Counters)),
		ScannedRows: ha.ScannedRows + hb.ScannedRows,
	}
	for v, c := range ha.Counters {
		out.Counters[v] = c
	}
	for v, c := range hb.Counters {
		out.Counters[v] += c
	}
	counts := make([]int64, 0, len(out.Counters))
	for _, c := range out.Counters {
		counts = append(counts, c)
	}
	if sub := mgExcess(counts, s.K); sub > 0 {
		for v, c := range out.Counters {
			if c <= sub {
				delete(out.Counters, v)
			} else {
				out.Counters[v] = c - sub
			}
		}
	}
	return out, nil
}

func heavyArgs(a, b Result) (*HeavyHitters, *HeavyHitters, error) {
	ha, ok1 := a.(*HeavyHitters)
	hb, ok2 := b.(*HeavyHitters)
	if !ok1 || !ok2 {
		return nil, nil, fmt.Errorf("sketch: heavy-hitters merge got %T and %T", a, b)
	}
	return ha, hb, nil
}
