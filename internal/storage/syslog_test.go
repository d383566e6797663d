package storage

import (
	"os"
	"strings"
	"testing"

	"repro/internal/table"
)

const sampleSyslog = `<165>1 2019-07-10T14:30:00.003Z gandalf app1 1234 ID47 [exampleSDID@32473 iut="3"] request served in 12ms
<34>1 2019-07-10T14:30:01Z frodo sshd - - - accepted connection
<13>1 2019-07-10T14:30:02+00:00 sam cron 77 - [a][b] double structured data
<165>1 - - - - - - message with nothing else
this line is not syslog at all
<999>1 2019-07-10T14:30:03Z bad pri out of range
`

func TestReadSyslog(t *testing.T) {
	tbl, err := ReadSyslogFrom(strings.NewReader(sampleSyslog), "log")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 6 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Row 0: fully structured.
	r := tbl.GetRow(0)
	if r[0].I != 165 || r[1].I != 5 || r[2].I != 20 {
		t.Errorf("pri/severity/facility = %v/%v/%v", r[0], r[1], r[2])
	}
	if r[3].Missing {
		t.Error("timestamp should parse")
	}
	if r[4].S != "gandalf" || r[5].S != "app1" || r[6].S != "1234" || r[7].S != "ID47" {
		t.Errorf("identity fields = %v %v %v %v", r[4], r[5], r[6], r[7])
	}
	if r[8].S != "request served in 12ms" {
		t.Errorf("message = %q", r[8].S)
	}
	// Row 1: nil-valued procid/msgid.
	r = tbl.GetRow(1)
	if !r[6].Missing || !r[7].Missing {
		t.Error("- fields should be missing")
	}
	if r[8].S != "accepted connection" {
		t.Errorf("message = %q", r[8].S)
	}
	// Row 2: numeric offset timestamp, stacked SD elements.
	r = tbl.GetRow(2)
	if r[3].Missing {
		t.Error("offset timestamp should parse")
	}
	if r[8].S != "double structured data" {
		t.Errorf("message = %q", r[8].S)
	}
	// Row 3: all nil except priority.
	r = tbl.GetRow(3)
	if r[0].I != 165 || !r[3].Missing || !r[4].Missing {
		t.Errorf("nil row = %v", r)
	}
	// Row 4: unparseable → raw line preserved, everything else missing.
	r = tbl.GetRow(4)
	if !r[0].Missing || r[8].S != "this line is not syslog at all" {
		t.Errorf("junk row = %v", r)
	}
	// Row 5: out-of-range PRI → treated as unparseable.
	r = tbl.GetRow(5)
	if !r[0].Missing {
		t.Errorf("bad pri row = %v", r)
	}
}

func TestSyslogSourceScheme(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/app.log"
	if err := writeFile(path, sampleSyslog); err != nil {
		t.Fatal(err)
	}
	parts, err := loadParts(t, "syslog:"+path, "log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || parts[0].NumRows() != 6 {
		t.Fatalf("parts = %d", len(parts))
	}
	// The severity column is queryable like any other.
	sev := parts[0].MustColumn("severity")
	if sev.Kind() != table.KindInt {
		t.Error("severity kind")
	}
}

func TestNormalizeRFC3339(t *testing.T) {
	cases := []struct{ in, want string }{
		{"2019-07-10T14:30:00Z", "2019-07-10 14:30:00"},
		{"2019-07-10T14:30:00.12345Z", "2019-07-10 14:30:00"},
		{"2019-07-10T14:30:00+05:30", "2019-07-10 14:30:00"},
		{"2019-07-10T14:30:00.003-08:00", "2019-07-10 14:30:00"},
	}
	for _, c := range cases {
		if got := normalizeRFC3339(c.in); got != c.want {
			t.Errorf("normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
