package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
)

// appendSchema is the ingest_query workload's dataset schema.
const appendSchema = "ts:date,lat:double,lon:double,msg:string"

// appendBody renders one rows-row append body of appendSchema the way
// the end-to-end benchmark's writer does: epoch-millisecond dates,
// four-decimal coordinates and a Zipf-distributed msg.
func appendBody(seed uint64, rows int) []byte {
	r := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	z := rand.NewZipf(r, 1.3, 1, 199)
	var b bytes.Buffer
	b.WriteString(`{"rows":[`)
	ts := int64(1_700_000_000_000) + int64(seed)*int64(rows)
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `[%d,%.4f,%.4f,"m%d"]`, ts+int64(i), r.Float64()*180-90, r.Float64()*360-180, z.Uint64())
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// appendServer is an ingest server sealing past 100,000 buffered rows
// (-segment-rows 100000) with one dataset "ev" of appendSchema.
func appendServer(tb testing.TB) *server {
	s := testIngestServer(tb, 100000)
	if rec, _ := post(tb, s.handleIngest, "/api/ingest?op=create&name=ev&schema="+appendSchema, ""); rec.Code != http.StatusOK {
		tb.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	return s
}

// postAppend drives one op=append of body through the handler.
func postAppend(tb testing.TB, s *server, body []byte) {
	req := httptest.NewRequest("POST", "/api/ingest?op=append&name=ev", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleIngest(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkIngestAppend is one 4,000-row append of the ingest_query
// workload through the HTTP handler, cycling over 16 bodies as the
// benchmark's writer does. Every 25th append crosses -segment-rows and
// seals, so ns/op carries a 25th of a seal.
func BenchmarkIngestAppend(b *testing.B) {
	const rows, pool = 4000, 16
	bodies := make([][]byte, pool)
	for i := range bodies {
		bodies[i] = appendBody(uint64(i), rows)
	}
	s := appendServer(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(bodies[0])))
	b.ResetTimer()
	for i := range b.N {
		postAppend(b, s, bodies[i%pool])
	}
}
