package colstore

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/table"
)

// testBudget lets CI force eviction churn across the whole test run by
// setting HILLVIEW_POOL_BUDGET; tests use the smaller of the env value
// and their own default so assertions about eviction still hold.
func testBudget(def int64) int64 {
	if s := os.Getenv("HILLVIEW_POOL_BUDGET"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 && v < def {
			return v
		}
	}
	return def
}

// intLoader returns a loader producing a deterministic column of n
// int64s (8n bytes), counting invocations.
func intLoader(n int, seed int64, loads *atomic.Int64) Loader {
	return func() (table.Column, int64, func(), error) {
		loads.Add(1)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = seed + int64(i)
		}
		return table.NewIntColumn(table.KindInt, vals, nil), int64(8 * n), nil, nil
	}
}

func TestPoolHitMissAndBudgetEviction(t *testing.T) {
	// Budget fits exactly two 800-byte columns.
	p := NewPool(1600)
	var loads atomic.Int64
	get := func(name string) func() {
		col, release, err := p.Acquire(ColKey{"src", name}, intLoader(100, int64(len(name)), &loads))
		if err != nil {
			t.Fatal(err)
		}
		if col.Len() != 100 {
			t.Fatalf("column %q: len %d", name, col.Len())
		}
		return release
	}
	get("a")()
	get("b")()
	if s := p.Stats(); s.Misses != 2 || s.Hits != 0 || s.Resident != 1600 {
		t.Fatalf("after two loads: %v", s)
	}
	get("a")() // hit
	if s := p.Stats(); s.Hits != 1 {
		t.Fatalf("expected a hit: %v", s)
	}
	get("c")() // pushes resident to 2400 -> evicts LRU (b)
	s := p.Stats()
	if s.Resident > 1600 || s.Evictions == 0 {
		t.Fatalf("budget not enforced: %v", s)
	}
	get("b")() // must reload
	if got := loads.Load(); got != 4 {
		t.Fatalf("loader ran %d times, want 4 (a,b,c + reload of b)", got)
	}
}

func TestPoolPinPreventsEviction(t *testing.T) {
	p := NewPool(800) // budget = one column
	var loads atomic.Int64
	colA, releaseA, err := p.Acquire(ColKey{"src", "a"}, intLoader(100, 1, &loads))
	if err != nil {
		t.Fatal(err)
	}
	// While a is pinned, loading b overshoots the budget; a must stay.
	_, releaseB, err := p.Acquire(ColKey{"src", "b"}, intLoader(100, 2, &loads))
	if err != nil {
		t.Fatal(err)
	}
	releaseB()
	if s := p.Stats(); s.Pinned != 1 {
		t.Fatalf("want exactly the pinned column: %v", s)
	}
	// a resident and pinned: another acquire is a hit, not a reload.
	_, r, err := p.Acquire(ColKey{"src", "a"}, intLoader(100, 1, &loads))
	if err != nil {
		t.Fatal(err)
	}
	r()
	if s := p.Stats(); s.Hits != 1 {
		t.Fatalf("pinned column was evicted: %v", s)
	}
	if p.EvictAll() == 0 {
		// b was already evicted by the budget; fine.
	}
	// EvictAll must not drop the pinned a.
	_, r2, err := p.Acquire(ColKey{"src", "a"}, intLoader(100, 1, &loads))
	if err != nil {
		t.Fatal(err)
	}
	r2()
	if s := p.Stats(); s.Hits != 2 {
		t.Fatalf("EvictAll dropped a pinned column: %v", s)
	}
	releaseA()
	_ = colA
	// Now release drops resident back under budget.
	if s := p.Stats(); s.Resident > 800 {
		t.Fatalf("release did not trigger eviction: %v", s)
	}
}

func TestPoolEvictThenReloadBitIdentical(t *testing.T) {
	p := NewPool(testBudget(1 << 20))
	var loads atomic.Int64
	key := ColKey{"src", "col"}
	first, r1, err := p.Acquire(key, intLoader(500, 42, &loads))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]int64(nil), first.(*table.IntColumn).Ints()...)
	r1()
	if p.EvictAll() != 1 {
		t.Fatal("EvictAll did not drop the released column")
	}
	second, r2, err := p.Acquire(key, intLoader(500, 42, &loads))
	if err != nil {
		t.Fatal(err)
	}
	defer r2()
	if loads.Load() != 2 {
		t.Fatalf("loader ran %d times, want 2", loads.Load())
	}
	if !reflect.DeepEqual(snapshot, second.(*table.IntColumn).Ints()) {
		t.Fatal("reloaded column differs from the evicted one")
	}
}

func TestPoolLoaderErrorNotCached(t *testing.T) {
	p := NewPool(0)
	boom := errors.New("boom")
	fail := true
	var loads atomic.Int64
	load := func() (table.Column, int64, func(), error) {
		loads.Add(1)
		if fail {
			return nil, 0, nil, boom
		}
		return table.NewIntColumn(table.KindInt, make([]int64, 4), nil), 32, nil, nil
	}
	if _, _, err := p.Acquire(ColKey{"s", "c"}, load); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	fail = false
	col, r, err := p.Acquire(ColKey{"s", "c"}, load)
	if err != nil || col == nil {
		t.Fatalf("retry after loader error failed: %v", err)
	}
	r()
	if loads.Load() != 2 {
		t.Fatalf("loader ran %d times, want 2", loads.Load())
	}
}

// TestPoolConcurrentBudget hammers one pool from many goroutines under
// a small budget (run with -race): loads must stay single-flight per
// key, pins must never be evicted, and the budget must hold once all
// pins release.
func TestPoolConcurrentBudget(t *testing.T) {
	const (
		cols    = 16
		workers = 8
		iters   = 60
		colSize = 8 * 64
	)
	p := NewPool(testBudget(3 * colSize)) // room for ~3 of 16 columns
	var wg sync.WaitGroup
	var loads atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("c%d", (w*7+i)%cols)
				col, release, err := p.Acquire(ColKey{"src", name}, intLoader(64, int64(len(name)), &loads))
				if err != nil {
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				s := int64(0)
				for _, v := range col.(*table.IntColumn).Ints() {
					s += v
				}
				_ = s
				release()
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.Pinned != 0 {
		t.Fatalf("pins leaked: %v", s)
	}
	if s.Budget > 0 && s.Resident > s.Budget {
		t.Fatalf("budget exceeded at rest: %v", s)
	}
	if s.Evictions == 0 {
		t.Fatalf("no eviction churn under tiny budget: %v", s)
	}
	if s.Hits+s.Misses != workers*iters {
		t.Fatalf("accounting: hits %d + misses %d != %d", s.Hits, s.Misses, workers*iters)
	}
}

// TestPoolMappedFileChurn drives a real mapped file through
// evict/reload cycles and checks values never change.
func TestPoolMappedFileChurn(t *testing.T) {
	src := testTable(t, 2000)
	f, err := OpenFile(writeTemp(t, src))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := NewPool(1) // evict everything as soon as it unpins
	want := map[string][]table.Value{}
	for pass := 0; pass < 3; pass++ {
		for ci := 0; ci < f.Schema().NumColumns(); ci++ {
			name := f.Schema().Columns[ci].Name
			ci := ci
			col, release, err := p.Acquire(ColKey{f.Path(), name}, func() (table.Column, int64, func(), error) {
				c, size, evict, err := f.Column(ci)
				return c, size, evict, err
			})
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]table.Value, col.Len())
			for i := range vals {
				vals[i] = col.Value(i)
			}
			if pass == 0 {
				want[name] = vals
			} else if !reflect.DeepEqual(want[name], vals) {
				t.Fatalf("pass %d: column %q changed across evict/reload", pass, name)
			}
			release()
		}
	}
	if s := p.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions under budget=1: %v", s)
	}
}

// TestPoolMappedFileReopenBitIdentical evicts a real mapped file's
// columns: their pages are unmapped, the budget frees, the file closes,
// and the file reopened at the same path (same source key) reloads the
// same values.
func TestPoolMappedFileReopenBitIdentical(t *testing.T) {
	path := writeTemp(t, testTable(t, 500))
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(0)
	acquireAll := func(f *File) map[string][]table.Value {
		vals := map[string][]table.Value{}
		for ci := 0; ci < f.Schema().NumColumns(); ci++ {
			name := f.Schema().Columns[ci].Name
			col, release, err := p.Acquire(ColKey{f.Path(), name}, func() (table.Column, int64, func(), error) {
				return f.Column(ci)
			})
			if err != nil {
				t.Fatal(err)
			}
			vs := make([]table.Value, col.Len())
			for i := range vs {
				vs[i] = col.Value(i)
			}
			vals[name] = vs
			release()
		}
		return vals
	}
	before := acquireAll(f)
	if s := p.Stats(); s.Resident == 0 {
		t.Fatalf("mapped columns not charged: %v", s)
	}
	if n := p.EvictAll(); n != f.Schema().NumColumns() {
		t.Fatalf("EvictAll dropped %d columns, want %d", n, f.Schema().NumColumns())
	}
	if s := p.Stats(); s.Resident != 0 || s.Columns != 0 {
		t.Fatalf("mapped pages still charged after eviction: %v", s)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close after eviction: %v", err)
	}

	f2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if after := acquireAll(f2); !reflect.DeepEqual(before, after) {
		t.Fatal("reopened file's columns differ from the evicted ones")
	}
}
