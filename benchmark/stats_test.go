package main

import (
	"math"
	"testing"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // descending: the functions must sort
	}
	return s
}

func TestQuantileRule(t *testing.T) {
	cases := []struct {
		name   string
		s      samples
		q      float64
		want   float64
		wantOK bool
	}{
		{"p95 of 199 is refused: 9 samples beyond", seq(199), 0.95, 190, false},
		{"p95 of 200 is allowed: 10 samples beyond", seq(200), 0.95, 190, true},
		{"p95 of 1000", seq(1000), 0.95, 950, true},
		{"p50 of 20 is allowed: 10 beyond", seq(20), 0.5, 10, true},
		{"p50 of 19 is refused", seq(19), 0.5, 10, false},
		{"p99 needs 1000", seq(999), 0.99, 990, false},
		{"single sample", samples{7}, 0.95, 7, false},
	}
	for _, c := range cases {
		got, ok := c.s.percentile(c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("%s: percentile(%v) = %v, %v; want %v, %v", c.name, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if v, ok := (samples{}).percentile(0.95); !math.IsNaN(v) || ok {
		t.Errorf("empty population: got %v, %v; want NaN, false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		s    samples
		want float64
	}{
		{samples{3, 1, 2}, 2},
		{samples{4, 1, 3, 2}, 2.5},
		{samples{5}, 5},
	}
	for _, c := range cases {
		if got := c.s.median(); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	if !math.IsNaN(samples{}.median()) {
		t.Error("median of nothing must be NaN so a missing population cannot pass as a number")
	}
}

func TestReportFinishRejectsGaps(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	r := report{}
	r.set("a", 1)
	if err := r.finish(defs); err == nil {
		t.Error("a report missing metric b must not finish")
	}
	r.set("b", math.NaN())
	if err := r.finish(defs); err == nil {
		t.Error("a NaN metric must not finish")
	}
	r.set("b", 2)
	r.set("c", 3)
	if err := r.finish(defs); err == nil {
		t.Error("an undefined metric must not finish")
	}
	delete(r, "c")
	if err := r.finish(defs); err != nil {
		t.Errorf("complete report: %v", err)
	}
	if r["b"].Unit != "s" {
		t.Errorf("finish must fill units, got %q", r["b"].Unit)
	}
}
