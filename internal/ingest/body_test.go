package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/table"
)

// oracleAppendBody is the append path ReadAppendBody replaced, kept
// as FuzzAppendBody's oracle: encoding/json decodes the body into
// [][]any, and boxedIngestRow (the handler's old row parser)
// boxes each row.
func oracleAppendBody(schema *table.Schema, body []byte) ([]table.Row, error) {
	var req struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	if len(req.Rows) == 0 {
		return nil, errors.New("append body has no rows")
	}
	rows := make([]table.Row, len(req.Rows))
	for i, in := range req.Rows {
		row, err := boxedIngestRow(schema, in)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		rows[i] = row
	}
	return rows, nil
}

// boxedIngestRow converts one JSON row (an array of values) to a
// table.Row per the dataset schema. null means missing; dates accept
// RFC 3339 strings or epoch-millisecond numbers.
func boxedIngestRow(schema *table.Schema, in []any) (table.Row, error) {
	if len(in) != schema.NumColumns() {
		return nil, fmt.Errorf("row has %d values, schema has %d columns", len(in), schema.NumColumns())
	}
	row := make(table.Row, len(in))
	for i, raw := range in {
		cd := schema.Columns[i]
		if raw == nil {
			row[i] = table.MissingValue(cd.Kind)
			continue
		}
		switch cd.Kind {
		case table.KindInt:
			n, ok := raw.(float64)
			if !ok || n != float64(int64(n)) {
				return nil, fmt.Errorf("column %q wants an integer, got %v", cd.Name, raw)
			}
			row[i] = table.IntValue(int64(n))
		case table.KindDouble:
			n, ok := raw.(float64)
			if !ok {
				return nil, fmt.Errorf("column %q wants a number, got %v", cd.Name, raw)
			}
			row[i] = table.DoubleValue(n)
		case table.KindString:
			str, ok := raw.(string)
			if !ok {
				return nil, fmt.Errorf("column %q wants a string, got %v", cd.Name, raw)
			}
			row[i] = table.StringValue(str)
		case table.KindDate:
			switch v := raw.(type) {
			case float64:
				row[i] = table.DateValue(time.UnixMilli(int64(v)).UTC())
			case string:
				t, err := time.Parse(time.RFC3339, v)
				if err != nil {
					return nil, fmt.Errorf("column %q: %w", cd.Name, err)
				}
				row[i] = table.DateValue(t)
			default:
				return nil, fmt.Errorf("column %q wants an RFC 3339 string or epoch millis, got %v", cd.Name, raw)
			}
		default:
			return nil, fmt.Errorf("column %q has unsupported kind %v", cd.Name, cd.Kind)
		}
	}
	return row, nil
}

// strictEnvelope reports whether body is one JSON object whose only
// member is "rows", once, followed by nothing but whitespace: the
// bodies on which ReadAppendBody promises the oracle's verdict.
// encoding/json also matches "Rows" (any case), skips unknown members,
// keeps the last of duplicate members and ignores what follows the
// object; ReadAppendBody rejects each of those.
func strictEnvelope(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for n := 0; dec.More(); n++ {
		key, err := dec.Token()
		if err != nil || key != "rows" || n > 0 {
			return false
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return false
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// kindLetters maps FuzzAppendBody's schema letters to kinds.
var kindLetters = map[byte]table.Kind{'i': table.KindInt, 'd': table.KindDouble, 's': table.KindString, 't': table.KindDate}

// letterSchema builds the schema spelled by kinds, one column per known
// letter, at most eight.
func letterSchema(kinds string) *table.Schema {
	var cols []table.ColumnDesc
	for i := 0; i < len(kinds) && len(cols) < 8; i++ {
		if k, ok := kindLetters[kinds[i]]; ok {
			cols = append(cols, table.ColumnDesc{Name: fmt.Sprintf("c%d", len(cols)), Kind: k})
		}
	}
	if len(cols) == 0 {
		return nil
	}
	return table.NewSchema(cols...)
}

// checkAppendBody holds ReadAppendBody to the oracle on one body: the
// same verdict where the envelope is strict, a rejection where it is
// not, and on acceptance the same cells, bit for bit.
func checkAppendBody(t *testing.T, schema *table.Schema, body []byte) {
	t.Helper()
	want, oerr := oracleAppendBody(schema, body)
	got, err := ReadAppendBody(schema, body)
	accept := oerr == nil && strictEnvelope(body)
	if (err == nil) != accept {
		t.Fatalf("schema %v body %q: reader err = %v, oracle err = %v, strict envelope = %v",
			schema, body, err, oerr, strictEnvelope(body))
	}
	if err != nil {
		return
	}
	if got.NumRows() != len(want) {
		t.Fatalf("body %q: %d rows, oracle %d", body, got.NumRows(), len(want))
	}
	for c := range schema.Columns {
		col := got.ColumnAt(c)
		for i, row := range want {
			g, w := col.Value(i), row[c]
			if g.Kind != w.Kind || g.Missing != w.Missing || g.I != w.I ||
				math.Float64bits(g.D) != math.Float64bits(w.D) || g.S != w.S {
				t.Fatalf("body %q row %d column %d: got %#v, oracle %#v", body, i, c, g, w)
			}
		}
	}
}

// appendBodySeeds are FuzzAppendBody's seeds, each a schema spelled in
// kind letters and a body: every append body of the hillview endpoint
// tests, then the edges of the grammar and the cell rules.
var appendBodySeeds = []struct{ kinds, body string }{
	{"ds", `{"rows": [[1.0, "a"], [2.0, "b"], [3.0, "a"], [null, "c"]]}`},
	{"ds", `{"rows": [[5.5, "d"], [6.5, "d"]]}`},
	{"it", `{"rows": []}`},
	{"it", `rows`},
	{"it", `{"rows": [[1]]}`},
	{"it", `{"rows": [["x", 0]]}`},
	{"it", `{"rows": [[1.5, 0]]}`},
	{"it", `{"rows": [[1, "yesterday"]]}`},
	{"it", `{"rows": [[1, "2019-07-01T10:00:00Z"], [2, 1561975200000]]}`},
	{"i", `{"rows": [[1], [2]]}`},
	{"d", `{"rows": [[1.0], [2.0], [3.0]]}`},
	{"d", `{"rows": [[4.0], [5.0]]}`},
	{"i", `{"rows": [[7], [8]]}`},
	{"tdds", `{"rows":[[1700000000000,12.3456,-45.0001,"m1"],[1700000000001,-0.0001,179.9999,"m17"]]}`},
	{"s", `{"rows": [["a\"b\\c\/d\b\f\n\r\t"], ["é世"], ["é世"]]}`},
	{"s", `{"rows": [["😀"], ["\ud83d\ude00"], ["\ud83d"], ["\ude00x"], ["\ud83dA"], ["\ud83d\u0041"], ["\ud83d😀"]]}`},
	{"s", "{\"rows\": [[\"\xff\xfe\"], [\"a\xc3\"], [\"\xed\xa0\x80\"]]}"},
	{"s", `{"rows": [["\x"], ["\u12"], ["\'"]]}`},
	{"s", "{\"rows\": [[\"tab\there\"]]}"},
	{"d", `{"rows": [[-0], [-0.0], [0], [1e308], [5e-324], [1e-400], [-1.5E+3], [123456789012345678901234567890]]}`},
	{"d", `{"rows": [[900719925474099.3], [9007199254740993e-5], [1234567890123456789e-10], [206759896036984121e-8], [1160300878014239353e-2], [0.1], [-0.30000000000000004], [4.35e22], [1e23]]}`},
	{"d", `{"rows": [[1e400]]}`},
	{"d", `{"rows": [[01]]}`},
	{"d", `{"rows": [[1.]]}`},
	{"d", `{"rows": [[.5]]}`},
	{"d", `{"rows": [[+1]]}`},
	{"d", `{"rows": [[0x10]]}`},
	{"d", `{"rows": [[NaN]]}`},
	{"i", `{"rows": [[-0], [9007199254740993], [-9223372036854775808], [1e3]]}`},
	{"i", `{"rows": [[9223372036854775808]]}`},
	{"i", `{"rows": [[1.5]]}`},
	{"i", `{"rows": [[true]]}`},
	{"s", `{"rows": [[false]]}`},
	{"i", `{"rows": [[[1]]]}`},
	{"i", `{"rows": [[{"a": 1}]]}`},
	{"i", `{"rows": [null]}`},
	{"i", `{"rows": null}`},
	{"ii", `{"rows": [[1, 2, 3]]}`},
	{"ii", `{"rows": [[1,]]}`},
	{"ii", `{"rows": [[1 2]]}`},
	{"t", `{"rows": [["2019-07-01T10:00:00+02:00"], ["2019-07-01T10:00:00.123456Z"], [1.9], [-1], ["2019-07-01"]]}`},
	{"t", `{"rows": [[1e300]]}`},
	{"i", `{"Rows": [[1]]}`},
	{"i", `{"ROWS": [[1]]}`},
	{"i", `{"r\u006fws": [[1]]}`},
	{"i", `{"rows": [[1]], "extra": 2}`},
	{"i", `{"extra": 2, "rows": [[1]]}`},
	{"i", `{"rows": [[1]], "rows": [[2]]}`},
	{"i", `{"rows": [[1]]} x`},
	{"i", `{"rows": [[1]]} {}`},
	{"i", "{\"rows\": [[1]]}\x00"},
	{"i", " \t\r\n{ \"rows\" : [ [ 1 ] , [ null ] ] } \n"},
	{"i", `{}`},
	{"i", `null`},
	{"i", ``},
	{"i", `{"rows": [[1]]`},
}

// FuzzAppendBody holds ReadAppendBody to oracleAppendBody, the
// encoding/json + boxedIngestRow path it replaced, over fuzzed schemas
// (kind letters i, d, s, t) and bodies: they agree on accepting or
// rejecting every body with a strict envelope, the reader rejects every
// other body, and accepted cells agree bit for bit. Each seed body runs
// under its own schema and under every one-column schema.
func FuzzAppendBody(f *testing.F) {
	for _, s := range appendBodySeeds {
		f.Add(s.kinds, []byte(s.body))
		for _, letter := range []string{"i", "d", "s", "t"} {
			f.Add(letter, []byte(s.body))
		}
	}
	f.Fuzz(func(t *testing.T, kinds string, body []byte) {
		if schema := letterSchema(kinds); schema != nil {
			checkAppendBody(t, schema, body)
		}
	})
}

// TestAppendBodyDivergences pins where ReadAppendBody is stricter than
// encoding/json, which accepts every one of these bodies.
func TestAppendBodyDivergences(t *testing.T) {
	schema := letterSchema("i")
	for _, tc := range []struct{ name, body string }{
		{"member spelled Rows", `{"Rows": [[1]]}`},
		{"unknown member after", `{"rows": [[1]], "extra": 2}`},
		{"unknown member before", `{"extra": 2, "rows": [[1]]}`},
		{"duplicate rows", `{"rows": [[1]], "rows": [[2]]}`},
		{"data after the object", `{"rows": [[1]]} x`},
		{"second object", `{"rows": [[1]]} {}`},
		{"a NUL after the object", "{\"rows\": [[1]]}\x00"},
	} {
		if _, err := oracleAppendBody(schema, []byte(tc.body)); err != nil {
			t.Fatalf("%s: encoding/json rejects it too: %v", tc.name, err)
		}
		if _, err := ReadAppendBody(schema, []byte(tc.body)); err == nil {
			t.Errorf("%s: %q accepted", tc.name, tc.body)
		}
	}
	// An escaped spelling of "rows" is still the member.
	if _, err := ReadAppendBody(schema, []byte(`{"r\u006fws": [[1]]}`)); err != nil {
		t.Errorf(`escaped "rows" rejected: %v`, err)
	}
}

// TestAppendBodyErrorsNameTheCell pins the error text: the row, the
// column and what it wanted.
func TestAppendBodyErrorsNameTheCell(t *testing.T) {
	schema := letterSchema("it")
	for body, want := range map[string]string{
		`{"rows": [[1, 0], [1.5, 0]]}`:   `row 1: column "c0" wants an integer, got 1.5`,
		`{"rows": [[1, 0], [1, true]]}`:  `row 1: bad append body at offset 22 ('t'): column "c1" of kind date cannot hold this value`,
		`{"rows": [["1", 0]]}`:           `row 0: bad append body at offset 11 ('"'): column "c0" of kind int cannot hold this value`,
		`{"rows": [[1]]}`:                `row 0: row has 1 values, schema has 2 columns`,
		`{"rows": [[1, 2, 3]]}`:          `row 0: row has more than 2 values, schema has 2 columns`,
		`{"rows": [[1e400, 0]]}`:         `row 0: number 1e400: value out of range`,
		`{"rows": []}`:                   `append body has no rows`,
		`{"rows": [[1, "yesterday"]]}`:   `row 0: column "c1": parsing time`,
		`{"rows": [[1, 0]], "extra": 1}`: `a member after "rows"`,
	} {
		_, err := ReadAppendBody(schema, []byte(body))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to contain %q", body, err, want)
		}
	}
}
