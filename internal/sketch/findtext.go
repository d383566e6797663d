package sketch

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/table"
)

// MatchKind selects the free-form text matching mode (paper §3.3:
// "by exact match, substring, regular expressions, case sensitivity").
type MatchKind uint8

const (
	// MatchExact requires the whole cell to equal the pattern.
	MatchExact MatchKind = iota
	// MatchSubstring requires the cell to contain the pattern.
	MatchSubstring
	// MatchRegex matches the cell against a regular expression.
	MatchRegex
)

// String returns the matcher name.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchSubstring:
		return "substring"
	case MatchRegex:
		return "regex"
	default:
		return fmt.Sprintf("match(%d)", uint8(k))
	}
}

// FindResult is the summary of the find-text vizketch: the first
// matching row after the start position in the sort order, and match
// counts that let the UI report "n matches, m before the cursor".
type FindResult struct {
	// Match is the first matching row in [order..., extra...] layout,
	// or nil when no match follows the start row.
	Match table.Row
	// MatchesAfter counts matching rows after the start row.
	MatchesAfter int64
	// MatchesBefore counts matching rows at or before the start row.
	MatchesBefore int64
}

// FindTextSketch locates the next row whose column matches a text
// criterion, in sort order (paper §4.3 "Find text": "similar to the next
// item vizketch except that we eliminate all rows that do not match").
type FindTextSketch struct {
	Col           string
	Pattern       string
	Kind          MatchKind
	CaseSensitive bool
	Order         table.RecordOrder
	Extra         []string
	// From is the exclusive start row (order-column layout); nil starts
	// at the beginning.
	From table.Row
}

// Name implements Sketch.
func (s *FindTextSketch) Name() string {
	return fmt.Sprintf("find(%s,%q,%s,cs=%t,%s,from=%v)", s.Col, s.Pattern, s.Kind, s.CaseSensitive, s.Order, s.From)
}

// Zero implements Sketch.
func (s *FindTextSketch) Zero() Result { return &FindResult{} }

// matcher compiles the match predicate once per partition.
func (s *FindTextSketch) matcher() (func(string) bool, error) {
	pat := s.Pattern
	if !s.CaseSensitive {
		pat = strings.ToLower(pat)
	}
	norm := func(v string) string {
		if s.CaseSensitive {
			return v
		}
		return strings.ToLower(v)
	}
	switch s.Kind {
	case MatchExact:
		return func(v string) bool { return norm(v) == pat }, nil
	case MatchSubstring:
		return func(v string) bool { return strings.Contains(norm(v), pat) }, nil
	case MatchRegex:
		expr := s.Pattern
		if !s.CaseSensitive {
			expr = "(?i)" + expr
		}
		re, err := regexp.Compile(expr)
		if err != nil {
			return nil, fmt.Errorf("sketch: find: %w", err)
		}
		return re.MatchString, nil
	default:
		return nil, fmt.Errorf("sketch: find: unknown match kind %d", s.Kind)
	}
}

// Summarize implements Sketch.
func (s *FindTextSketch) Summarize(t *table.Table) (Result, error) {
	col, err := t.Column(s.Col)
	if err != nil {
		return nil, err
	}
	match, err := s.matcher()
	if err != nil {
		return nil, err
	}
	matches := matchRows(col, match)
	if err := checkCursor(s.Order, s.From); err != nil {
		return nil, err
	}
	cols, err := rowColumns("find", t.Schema(), s.Order, s.Extra)
	if err != nil {
		return nil, err
	}
	keyCmp := s.Order.RowComparator()
	cmp := (&NextKSketch{Order: s.Order}).rowCmp()
	nOrder := len(s.Order)

	out := &FindResult{}
	t.Members().Iterate(func(row int) bool {
		if !matches(row) {
			return true
		}
		r := t.GetRowCols(row, cols)
		if len(s.From) > 0 && keyCmp(r[:nOrder], s.From) <= 0 {
			out.MatchesBefore++
			return true
		}
		out.MatchesAfter++
		if out.Match == nil || cmp(r, out.Match) < 0 {
			out.Match = r
		}
		return true
	})
	return out, nil
}

// matchRows returns the test "row is present and its display form
// matches" over col's backing storage. A dictionary column runs match at
// most once per distinct code it meets; a numeric row is formatted as
// table.Value.String renders it.
func matchRows(col table.Column, match func(string) bool) func(row int) bool {
	switch c := col.(type) {
	case *table.IntColumn:
		kind, vals, miss := c.Kind(), c.Ints(), c.MissingMask()
		return func(row int) bool {
			return !miss.Get(row) && match(table.Value{Kind: kind, I: vals[row]}.String())
		}
	case *table.DoubleColumn:
		vals, miss := c.Doubles(), c.MissingMask()
		return func(row int) bool { return !miss.Get(row) && match(table.DoubleValue(vals[row]).String()) }
	}
	c := col.(*table.StringColumn)
	codes, dict, miss := c.Codes(), c.Dict(), c.MissingMask()
	seen := make([]int8, len(dict)) // 0 not yet matched, 1 matches, -1 does not
	return func(row int) bool {
		if miss.Get(row) {
			return false
		}
		code := codes[row]
		if seen[code] == 0 {
			seen[code] = -1
			if match(dict[code]) {
				seen[code] = 1
			}
		}
		return seen[code] > 0
	}
}

// Merge implements Sketch.
func (s *FindTextSketch) Merge(a, b Result) (Result, error) {
	fa, ok1 := a.(*FindResult)
	fb, ok2 := b.(*FindResult)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("sketch: find merge got %T and %T", a, b)
	}
	out := &FindResult{
		MatchesAfter:  fa.MatchesAfter + fb.MatchesAfter,
		MatchesBefore: fa.MatchesBefore + fb.MatchesBefore,
	}
	cmp := (&NextKSketch{Order: s.Order}).rowCmp()
	switch {
	case fa.Match == nil:
		out.Match = fb.Match
	case fb.Match == nil:
		out.Match = fa.Match
	case cmp(fa.Match, fb.Match) <= 0:
		out.Match = fa.Match
	default:
		out.Match = fb.Match
	}
	return out, nil
}
