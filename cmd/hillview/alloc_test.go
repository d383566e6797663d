//go:build !race

// The race detector's sync.Pool drops a share of the buffers put back
// on purpose, so these allocation counts hold only without it.

package main

import (
	"runtime"
	"testing"
)

// TestIngestAppendAllocs pins what one 4,000-row append of the
// ingest_query workload costs the heap through the handler: at most
// 1 MB in at most 1,000 objects, where the boxed [][]any decode took
// 3.3 MB in 48,000. It measures five appends after a warm-up one, none
// of which crosses -segment-rows, with one P held as
// testing.AllocsPerRun holds it.
func TestIngestAppendAllocs(t *testing.T) {
	const rows, runs = 4000, 5
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		bodies[i] = appendBody(uint64(i), rows)
	}
	s := appendServer(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	postAppend(t, s, bodies[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range bodies[1:] {
		postAppend(t, s, body)
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one append: %d B in %d objects", bytes, objects)
	if bytes > 1_000_000 || objects > 1000 {
		t.Fatalf("one append allocates %d B in %d objects, want at most 1 MB in 1,000", bytes, objects)
	}
}
