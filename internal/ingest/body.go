package ingest

import (
	"bytes"
	"fmt"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/table"
)

// ReadAppendBody decodes an append body, {"rows": [[cell, ...], ...]},
// into a batch of schema's columns for Dataset.Append. It reads body in
// one pass and writes each cell straight into a table.Builder, so no
// cell is boxed and a string is copied only when it is new to its
// column.
//
// The body is one JSON object with exactly one member, "rows", followed
// by nothing but whitespace. rows is a non-empty array of rows, each an
// array of schema.NumColumns() cells. A cell is null (missing) or a
// value of its column's kind:
//
//   - int: a number whose value is integral;
//   - double: a number;
//   - string: a string;
//   - date: an RFC 3339 string, or a number of epoch milliseconds.
//
// Numbers follow the JSON grammar and take the value
// strconv.ParseFloat(s, 64) gives them, so one out of float64 range is
// an error. Strings decode as encoding/json decodes them: escapes and
// surrogate pairs resolve, and invalid UTF-8 and lone surrogates become
// U+FFFD. Any violation rejects the whole body, naming the row and
// column at fault, so a batch holds every row of its body or none.
func ReadAppendBody(schema *table.Schema, body []byte) (*table.Table, error) {
	r := bodyReader{buf: body}
	if err := r.expect('{'); err != nil {
		return nil, err
	}
	if r.peek() != '"' {
		return nil, r.errorf(`want member "rows"`)
	}
	key, err := r.string()
	if err != nil {
		return nil, err
	}
	if string(key) != "rows" {
		return nil, fmt.Errorf(`bad append body: unknown member %q (the only member is "rows")`, key)
	}
	if err := r.expect(':'); err != nil {
		return nil, err
	}
	b := table.NewBuilder(schema, 0)
	width := schema.NumColumns()
	n, err := r.list(func(row int) error {
		start := r.pos
		cells, err := r.list(func(col int) error {
			if col == width {
				return fmt.Errorf("row has more than %d values, schema has %d columns", width, width)
			}
			return r.cell(b, col, schema.Columns[col])
		})
		if err == nil && cells != width {
			err = fmt.Errorf("row has %d values, schema has %d columns", cells, width)
		}
		if err != nil {
			return fmt.Errorf("row %d: %w", row, err)
		}
		if row == 0 {
			// Size the columns from the first row's length, with an
			// eighth to spare, so they do not regrow row by row. A row
			// takes at least two bytes a cell, so however short the
			// first row, this reserves a few times the body's size.
			rest := (len(r.buf) - r.pos) / (r.pos - start + 1)
			b.Grow(rest + rest/8)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if r.peek() == ',' {
		return nil, r.errorf(`a member after "rows" (the only member is "rows")`)
	}
	if err := r.expect('}'); err != nil {
		return nil, err
	}
	if r.peek(); r.pos != len(r.buf) {
		return nil, r.errorf("data after the body's object")
	}
	if n == 0 {
		return nil, fmt.Errorf("append body has no rows")
	}
	return b.Freeze("append"), nil
}

// bodyReader is a cursor over an append body.
type bodyReader struct {
	buf []byte
	pos int
	str []byte // the decoded form of a string that needed unquoting
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *bodyReader) peek() byte {
	for ; r.pos < len(r.buf); r.pos++ {
		switch c := r.buf[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, the next byte after whitespace.
func (r *bodyReader) expect(c byte) error {
	if r.peek() != c {
		return r.errorf("want %q", c)
	}
	r.pos++
	return nil
}

func (r *bodyReader) errorf(format string, args ...any) error {
	at := "the end"
	if r.pos < len(r.buf) {
		at = fmt.Sprintf("offset %d (%q)", r.pos, r.buf[r.pos])
	}
	return fmt.Errorf("bad append body at %s: %s", at, fmt.Sprintf(format, args...))
}

// list reads a JSON array, calling item on each element in turn, and
// returns its length.
func (r *bodyReader) list(item func(i int) error) (int, error) {
	if err := r.expect('['); err != nil {
		return 0, err
	}
	if r.peek() == ']' {
		r.pos++
		return 0, nil
	}
	for n := 0; ; n++ {
		if err := item(n); err != nil {
			return 0, err
		}
		switch r.peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			return n + 1, nil
		default:
			return 0, r.errorf("want ',' or ']'")
		}
	}
}

// cell reads one cell into column col of b.
func (r *bodyReader) cell(b *table.Builder, col int, cd table.ColumnDesc) error {
	switch c := r.peek(); {
	case c == 'n':
		if !bytes.HasPrefix(r.buf[r.pos:], []byte("null")) {
			return r.errorf("want null")
		}
		r.pos += len("null")
		b.AppendMissing(col)
		return nil
	case c == '"' && (cd.Kind == table.KindString || cd.Kind == table.KindDate):
		s, err := r.string()
		if err != nil {
			return err
		}
		if cd.Kind == table.KindString {
			b.AppendString(col, s)
			return nil
		}
		t, err := time.Parse(time.RFC3339, string(s))
		if err != nil {
			return fmt.Errorf("column %q: %w", cd.Name, err)
		}
		b.AppendInt(col, t.UnixMilli())
		return nil
	case (c == '-' || '0' <= c && c <= '9') && cd.Kind != table.KindString:
		f, err := r.number()
		if err != nil {
			return err
		}
		switch {
		case cd.Kind == table.KindDouble:
			b.AppendDouble(col, f)
		case cd.Kind == table.KindDate || f == float64(int64(f)):
			b.AppendInt(col, int64(f))
		default:
			return fmt.Errorf("column %q wants an integer, got %v", cd.Name, f)
		}
		return nil
	}
	return r.errorf("column %q of kind %v cannot hold this value", cd.Name, cd.Kind)
}

// number reads a JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, as strconv.ParseFloat
// reads it. A number of at most 19 digits whose mantissa is below 2⁵²
// and whose decimal exponent is within ±22 converts exactly here, in
// the one rounding step ParseFloat's own exact path takes; any other
// goes to ParseFloat.
func (r *bodyReader) number() (float64, error) {
	buf, p := r.buf, r.pos
	var (
		mant   uint64
		nd, dp int // digits read, and digits after the point
	)
	digits := func() bool {
		start := p
		for ; p < len(buf) && '0' <= buf[p] && buf[p] <= '9'; p++ {
			if nd < 19 {
				mant = mant*10 + uint64(buf[p]-'0')
			}
			nd++
		}
		return p > start
	}
	neg := buf[p] == '-'
	if neg {
		p++
	}
	if p < len(buf) && buf[p] == '0' {
		p++
		nd++
	} else if !digits() {
		return 0, r.errorf("want a digit")
	}
	if p < len(buf) && buf[p] == '.' {
		p++
		intDigits := nd
		if !digits() {
			return 0, r.errorf("want a digit after '.'")
		}
		dp = nd - intDigits
	}
	exp := 0
	if p < len(buf) && (buf[p] == 'e' || buf[p] == 'E') {
		esign := 1
		if p++; p < len(buf) && (buf[p] == '+' || buf[p] == '-') {
			if buf[p] == '-' {
				esign = -1
			}
			p++
		}
		start := p
		for ; p < len(buf) && '0' <= buf[p] && buf[p] <= '9'; p++ {
			if exp < 1e6 {
				exp = exp*10 + int(buf[p]-'0')
			}
		}
		if p == start {
			return 0, r.errorf("want a digit in the exponent")
		}
		exp *= esign
	}
	tok := buf[r.pos:p]
	r.pos = p
	if exp -= dp; nd <= 19 && mant>>52 == 0 && -22 <= exp && exp <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / pow10[-exp], nil
		}
		return f * pow10[exp], nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s: %w", tok, err.(*strconv.NumError).Err)
	}
	return f, nil
}

// pow10 holds the powers of ten that float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// string reads the JSON string at r.pos and returns its decoded bytes:
// a view of the body when the string holds no escape and only ASCII,
// otherwise r.str. Either is valid until the next call.
func (r *bodyReader) string() ([]byte, error) {
	start := r.pos + 1
	for p := start; p < len(r.buf); p++ {
		switch c := r.buf[p]; {
		case c == '"':
			r.pos = p + 1
			return r.buf[start:p], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return r.unquote(start)
		}
	}
	return nil, r.errorf("unterminated string")
}

// unquote decodes the string whose contents start at buf[start] as
// encoding/json does.
func (r *bodyReader) unquote(start int) ([]byte, error) {
	out, buf := r.str[:0], r.buf
	for p := start; p < len(buf); {
		switch c := buf[p]; {
		case c == '"':
			r.pos, r.str = p+1, out
			return out, nil
		case c < ' ':
			r.pos = p
			return nil, r.errorf("control character in string")
		case c >= utf8.RuneSelf:
			rr, size := utf8.DecodeRune(buf[p:])
			out = utf8.AppendRune(out, rr)
			p += size
		case c != '\\':
			out = append(out, c)
			p++
		case p+1 == len(buf): // the body ends inside an escape
			p++
		default: // an escape
			switch e := buf[p+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(buf[p:])
				if rr < 0 {
					r.pos = p
					return nil, r.errorf(`bad \u escape`)
				}
				p += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, hex4(buf[p:])); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						p += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
				continue
			default:
				r.pos = p
				return nil, r.errorf("bad escape")
			}
			p += 2
		}
	}
	r.pos = len(buf)
	return nil, r.errorf("unterminated string")
}

// hex4 returns the code unit of the \uXXXX escape that p starts with, or
// -1 when p does not start with one.
func hex4(p []byte) rune {
	if len(p) < 6 || p[0] != '\\' || p[1] != 'u' {
		return -1
	}
	n, err := strconv.ParseUint(string(p[2:6]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(n)
}
