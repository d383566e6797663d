package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []float64
	}{
		{
			name: "nested chain: each span keeps what its child does not cover",
			spans: []span{
				{Name: "client.request", Start: 0, End: 100},
				{Name: "http.histogram", Start: 10, End: 90},
				{Name: "serve.exec", Start: 20, End: 80},
				{Name: "scan.leaf", Start: 30, End: 70},
			},
			want: []float64{20, 20, 20, 40},
		},
		{
			name: "two children in sequence",
			spans: []span{
				{Name: "http.histogram", Start: 0, End: 100},
				{Name: "serve.batch_window", Start: 0, End: 10},
				{Name: "serve.exec", Start: 10, End: 60},
			},
			want: []float64{40, 10, 50},
		},
		{
			name: "side-by-side children share the overlap, so self times sum to the wall",
			spans: []span{
				{Name: "http.histogram", Start: 0, End: 100},
				{Name: "serve.exec", Start: 0, End: 80},
				{Name: "serve.exec", Start: 40, End: 100},
			},
			want: []float64{0, 60, 40},
		},
		{
			name: "a batch window nested by interval inside another sketch's scan is its sibling, not its child",
			spans: []span{
				{Name: "http.histogram", Start: 0, End: 100},
				{Name: "serve.exec", Start: 0, End: 100},
				{Name: "scan.leaf", Start: 0, End: 100},
				{Name: "serve.batch_window", Start: 20, End: 60},
			},
			want: []float64{0, 0, 80, 20},
		},
		{
			name: "worker spans stitched under two parallel wire calls",
			spans: []span{
				{Name: "serve.exec", Start: 0, End: 100},
				{Name: "wire.call", Start: 0, End: 60, Note: "w1"},
				{Name: "wire.call", Start: 0, End: 100, Note: "w2"},
				{Name: "worker.sketch", Start: 10, End: 50},
				{Name: "worker.sketch", Start: 10, End: 90},
			},
			// 0-10: two calls share; 10-50: two workers share; 50-60: call w1
			// and worker 2 share; 60-90: worker 2; 90-100: call w2.
			want: []float64{0, 5 + 5, 5 + 10, 20, 20 + 5 + 30},
		},
		{
			name: "zero-length annotations take no time",
			spans: []span{
				{Name: "serve.exec", Start: 0, End: 10},
				{Name: "engine.cache_hit", Start: 5, End: 5},
			},
			want: []float64{10, 0},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		var sum, wall float64
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("%s: self time of span %d (%s) = %v, want %v", c.name, i, c.spans[i].Name, got[i], c.want[i])
			}
			sum += got[i]
			wall = math.Max(wall, float64(c.spans[i].End))
		}
		if sum > wall+1e-9 {
			t.Errorf("%s: self times sum to %v, more than the %v covered", c.name, sum, wall)
		}
	}
}

func TestAssignParents(t *testing.T) {
	spans := []span{
		{Name: "client.request", Start: 0, End: 100},
		{Name: "http.table", Start: 5, End: 95},
		{Name: "serve.exec", Start: 10, End: 90},
		{Name: "scan.leaf", Start: 20, End: 80},
		{Name: "scan.chunk", Start: 30, End: 40},
		{Name: "client.last_byte", Start: 100, End: 100},
	}
	assignParents(spans)
	want := []int{-1, 0, 1, 2, 3, 0}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("parent of %s = %d, want %d", s.Name, s.Parent, want[i])
		}
	}
}

func TestFoldOpLayers(t *testing.T) {
	spans := []span{
		{Name: "client.request", Start: 0, End: 10e6},
		{Name: "http.histogram", Start: 1e6, End: 9e6},
		{Name: "serve.batch_window", Start: 1e6, End: 2e6},
		{Name: "serve.exec", Start: 2e6, End: 8e6},
		{Name: "wire.call", Start: 2e6, End: 8e6, Note: "a"},
		{Name: "worker.sketch", Start: 3e6, End: 7e6},
		{Name: "scan.leaf", Start: 3e6, End: 6e6},
		{Name: "engine.cache_hit", Start: 2e6, End: 2e6},
	}
	b := foldOp(spans)
	want := map[string]float64{clientLayer: 2, "http": 1, "serve": 1, "cluster": 2, "engine": 4}
	for layer, ms := range want {
		if math.Abs(b.layerMs[layer]-ms) > 1e-9 {
			t.Errorf("layer %s = %v ms, want %v", layer, b.layerMs[layer], ms)
		}
	}
	if b.wallMs != 10 || b.callMs != 6 || b.workerMs != 4 || b.scans != 2 || b.cacheHits != 1 {
		t.Errorf("fold: wall %v call %v worker %v scans %d hits %d", b.wallMs, b.callMs, b.workerMs, b.scans, b.cacheHits)
	}
	tab := layerTable([]opBreakdown{b})
	if got := tab.coverage(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("coverage = %v, want 0.8 (2 of 10 ms are the client's own)", got)
	}
}

func TestStragglerRatio(t *testing.T) {
	b := opBreakdown{callsByNote: map[string]float64{"w1": 10, "w2": 30}}
	if got := b.stragglerRatio(); got != 1.5 {
		t.Errorf("straggler ratio = %v, want 1.5 (30 over a mean of 20)", got)
	}
	if got := (opBreakdown{}).stragglerRatio(); got != 1 {
		t.Errorf("no workers: %v, want 1", got)
	}
}
