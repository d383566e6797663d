package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/storage"
	"repro/internal/table"
)

// BenchmarkWire* measures the binary wire codec, interleaved with the
// per-frame gob fallback envelope it replaced on the shipped types.
// BENCH_wire.json holds the historical A/B that also carried the seed's
// stateful gob stream, a codec mode that no longer exists.
//
//	go test -run xxx -bench BenchmarkWire -benchmem ./internal/cluster/

// gobOnlyResult wraps a shipped result in a type without a binary
// codec, forcing the frame onto the MsgGobEnvelope fallback: stateless
// per-frame gob, what a naive "make every frame self-contained" fix
// would have cost.
type gobOnlyResult struct{ R sketch.Result }

func init() { gob.Register(&gobOnlyResult{}) }

// benchResults builds representative summaries at display-plausible
// sizes (paper §4.2: summary size follows the rendering, not the data).
func benchHistogram() *sketch.Histogram {
	h := &sketch.Histogram{
		Buckets:     sketch.NumericBuckets(table.KindDouble, -60, 600, 100),
		Counts:      make([]int64, 100),
		Missing:     12345,
		SampleRate:  1,
		SampledRows: 9_700_000,
	}
	for i := range h.Counts {
		h.Counts[i] = int64(1_000_000 / (i + 1))
	}
	return h
}

func benchHist2D() *sketch.Histogram2D {
	h := &sketch.Histogram2D{
		X:          sketch.NumericBuckets(table.KindDouble, -60, 600, 25),
		Y:          sketch.NumericBuckets(table.KindDouble, 0, 3000, 20),
		Counts:     make([]int64, 25*20),
		YOther:     make([]int64, 25),
		SampleRate: 1,
	}
	for i := range h.Counts {
		h.Counts[i] = int64(i * 977 % 100_000)
	}
	return h
}

func benchHeavyHitters() *sketch.HeavyHitters {
	h := &sketch.HeavyHitters{K: 32, Counters: make(map[table.Value]int64, 33), ScannedRows: 10_000_000}
	for i := 0; i < 33; i++ {
		h.Counters[table.StringValue(fmt.Sprintf("ORG%02d", i))] = int64(10_000_000 / (i + 2))
	}
	return h
}

func benchNextK() *sketch.NextKList {
	l := &sketch.NextKList{
		Order: table.Asc("a").Then("b", false),
		K:     25, Before: 100, Total: 100000,
	}
	for i := 0; i < 25; i++ {
		l.Rows = append(l.Rows, table.Row{
			table.DoubleValue(float64(i) * 1.5),
			table.IntValue(int64(i)),
			table.StringValue(fmt.Sprintf("value-%d", i)),
		})
		l.Counts = append(l.Counts, int64(i+1))
	}
	return l
}

func benchTrellis() *sketch.Trellis {
	sk := &sketch.TrellisSketch{
		Group: sketch.NumericBuckets(table.KindDouble, 0, 4, 4),
		X:     sketch.NumericBuckets(table.KindDouble, 0, 10, 10),
		Y:     sketch.NumericBuckets(table.KindDouble, 0, 8, 8),
		Rate:  1,
	}
	tr := sk.Zero().(*sketch.Trellis)
	for _, p := range tr.Plots {
		for i := range p.Counts {
			p.Counts[i] = int64(i * 31)
		}
	}
	return tr
}

// benchCodec runs env through one encode+decode round trip per op,
// reporting the frame's own bytes.
func benchCodec(b *testing.B, env *Envelope) {
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	// Measure the frame size once for SetBytes.
	if err := fc.send(env); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	if _, err := fc.recv(); err != nil {
		b.Fatal(err)
	}
	buf.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fc.send(env); err != nil {
			b.Fatal(err)
		}
		if _, err := fc.recv(); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
	}
}

// BenchmarkWireEncodeDecode is the per-result-type A/B: one full frame
// encoded and decoded per op. These are final-style frames (the delta
// path has its own benchmark below).
func BenchmarkWireEncodeDecode(b *testing.B) {
	cases := []struct {
		name   string
		result sketch.Result
	}{
		{"histogram", benchHistogram()},
		{"hist2d", benchHist2D()},
		{"trellis", benchTrellis()},
		{"heavyhitters", benchHeavyHitters()},
		{"nextk", benchNextK()},
	}
	for _, tc := range cases {
		env := &Envelope{ReqID: 1, Kind: MsgFinal, Result: tc.result, Done: 4, Total: 4}
		envFallback := &Envelope{ReqID: 1, Kind: MsgFinal, Result: &gobOnlyResult{R: tc.result}, Done: 4, Total: 4}
		b.Run(tc.name+"/binary", func(b *testing.B) { benchCodec(b, env) })
		b.Run(tc.name+"/gobframe", func(b *testing.B) { benchCodec(b, envFallback) })
	}
}

// addCounts returns a copy of r with per-bucket increments of tick's
// magnitude — the shape of one progress tick's worth of scanning.
func addCounts(r sketch.Result, tick int64) sketch.Result {
	switch h := r.(type) {
	case *sketch.Histogram:
		out := *h
		out.Counts = append([]int64(nil), h.Counts...)
		for i := range out.Counts {
			out.Counts[i] += tick + int64(i%7)*tick/4
		}
		out.SampledRows += tick * int64(len(out.Counts))
		return &out
	case *sketch.Histogram2D:
		out := *h
		out.Counts = append([]int64(nil), h.Counts...)
		for i := range out.Counts {
			out.Counts[i] += tick + int64(i%5)
		}
		out.SampledRows += tick * int64(len(out.Counts))
		return &out
	case *sketch.HeavyHitters:
		out := *h
		out.Counters = make(map[table.Value]int64, len(h.Counters))
		for k, v := range h.Counters {
			out.Counters[k] = v + tick
		}
		out.ScannedRows += tick * int64(len(out.Counters))
		return &out
	}
	return r
}

// benchPartialStream alternates two successive snapshots through one
// request's partial stream, so binary frames after warmup are real
// deltas (per-bucket increments of a progress tick) and fallback frames
// carry the whole summary again. wirebytes/op is the steady-state frame
// size.
func benchPartialStream(b *testing.B, fallback bool, base sketch.Result) {
	next := addCounts(base, 4096)
	wrap := func(r sketch.Result) sketch.Result {
		if fallback {
			return &gobOnlyResult{R: r}
		}
		return r
	}
	envs := [2]*Envelope{
		{ReqID: 7, Kind: MsgPartial, Result: wrap(base), Done: 1, Total: 4},
		{ReqID: 7, Kind: MsgPartial, Result: wrap(next), Done: 2, Total: 4},
	}
	var buf bytes.Buffer
	fc := newFrameConn(&buf)
	// Warm up: the first frame of a stream is always full.
	var steady int
	for i := 0; i < 4; i++ {
		before := buf.Len()
		if err := fc.send(envs[i%2]); err != nil {
			b.Fatal(err)
		}
		steady = buf.Len() - before
		if _, err := fc.recv(); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
	}
	b.SetBytes(int64(steady))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fc.send(envs[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := fc.recv(); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
	}
	b.ReportMetric(float64(steady), "wirebytes/op")
}

// BenchmarkWirePartialStream is the acceptance metric: a request's
// partial stream, one partial frame per op against a warm delta chain
// (binary) versus the per-frame gob fallback (every partial re-ships the
// whole summary). allocs/op is allocations per partial frame, encode
// plus decode; wirebytes/op shows the delta shrinkage (heavy hitters has
// no delta form and ships full frames).
func BenchmarkWirePartialStream(b *testing.B) {
	cases := []struct {
		name   string
		result sketch.Result
	}{
		{"histogram", benchHistogram()},
		{"hist2d", benchHist2D()},
		{"heavyhitters", benchHeavyHitters()},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/binary", func(b *testing.B) { benchPartialStream(b, false, tc.result) })
		b.Run(tc.name+"/gobframe", func(b *testing.B) { benchPartialStream(b, true, tc.result) })
	}
}

// BenchmarkWireSketchTCP is the end-to-end leg: a full sketch round
// trip — request, partial stream, final — through a real worker over
// TCP.
func BenchmarkWireSketchTCP(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		w := NewWorker(storage.NewLoader(engine.Config{AggregationWindow: 1}, 0))
		addr, err := w.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		cl, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		ctx := context.Background()
		if _, err := cl.Load(ctx, "d", "flights:rows=200000,parts=8"); err != nil {
			b.Fatal(err)
		}
		sk := &sketch.HistogramSketch{Col: "DepDelay", Buckets: sketch.NumericBuckets(table.KindDouble, -60, 600, 100)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Sketch(ctx, "d", sk, func(engine.Partial) {}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := cl.WireStats()
		b.ReportMetric(float64(st.BytesIn)/float64(b.N), "wirebytes/op")
	})
}
