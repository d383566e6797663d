package storage

import (
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/table"
)

// This file wires the column store's budgeted buffer pool into the
// engine: PooledSource serves the micropartitions of a source as an
// engine.LeafSource, so the column data of its HVC2 files is
// materialized only while a scan task reads it (zero-copy from the
// mapping) and evicted under the pool budget between touches. Files
// split by SplitRows' rule, so a file's partitions carry the IDs and
// rows its heap image would split into — the property the testkit
// differential harness asserts bit-for-bit.

// PoolBudgetEnv is the environment variable the default pool budget
// comes from; CI sets it small to force eviction churn.
const PoolBudgetEnv = "HILLVIEW_POOL_BUDGET"

// PoolBudgetFromEnv returns the byte budget configured in the
// environment, or 0 (unlimited) when unset. A set-but-unparseable
// value is loudly ignored rather than silently meaning "unlimited" —
// a worker whose budget typo disables eviction would OOM on its first
// larger-than-RAM dataset.
func PoolBudgetFromEnv() int64 {
	raw := os.Getenv(PoolBudgetEnv)
	v, err := ParseByteSize(raw)
	if err != nil {
		log.Printf("storage: ignoring %s=%q: %v", PoolBudgetEnv, raw, err)
		return 0
	}
	return v
}

// PoolBudget resolves a binary's column pool budget: the -pool-budget
// flag value when it is set, else PoolBudgetFromEnv.
func PoolBudget(flagValue string) (int64, error) {
	if flagValue == "" {
		return PoolBudgetFromEnv(), nil
	}
	return ParseByteSize(flagValue)
}

// ParseByteSize parses "4096", "64K", "256M"/"256Mi"/"256MiB", "2G"
// into bytes (binary multiples; the optional i/B spellings are
// equivalent).
func ParseByteSize(s string) (int64, error) {
	orig := s
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	for _, suffix := range []string{"B", "b", "i", "I"} {
		if len(s) > 1 {
			s = strings.TrimSuffix(s, suffix)
		}
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("storage: bad byte size %q", orig)
	}
	// n*mult must not wrap: "9999999999G" silently became a negative
	// budget (treated as unlimited) before this check.
	if mult > 1 && (n > math.MaxInt64/mult || n < math.MinInt64/mult) {
		return 0, fmt.Errorf("storage: byte size %q overflows int64", orig)
	}
	return n * mult, nil
}

// PooledFileSpec names one HVC2 file and the table ID its whole-file
// partition carries (split partitions append "#k", like SplitRows).
type PooledFileSpec struct {
	Path string
	ID   string
}

// fileCache shares open mapped handles across the loads of one loader:
// reloading a source — in particular redo-log replay after soft-state
// loss, which re-invokes the loader with the same spec — reuses the
// existing mapping instead of accruing a new one per load. Handles
// live as long as the loader: sources are immutable snapshots, so a
// path rewritten while the loader lives is still served from the file
// it first mapped (WriteHVC2 replaces by rename, which keeps that
// mapping readable); a fresh loader reads the new file.
type fileCache struct {
	mu    sync.Mutex
	files map[string]*colstore.File
}

func (c *fileCache) open(path string) (*colstore.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.files[path]; ok {
		return f, nil
	}
	f, err := colstore.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if c.files == nil {
		c.files = make(map[string]*colstore.File)
	}
	c.files[path] = f
	return f, nil
}

// pooledFile is one open backing file, served from its mapping. owned
// reports whether this source must close it — cache-shared handles
// belong to the loader.
type pooledFile struct {
	*colstore.File
	owned bool
}

// pooledLeaf is one micropartition: a row range (its LeafMeta) of a
// mapped file, or a resident partition (CSV, JSON lines, a registered
// scheme).
type pooledLeaf struct {
	file     *pooledFile
	resident *table.Table
}

// PooledSource implements engine.LeafSource over the micropartitions
// of one source. The partitions of HVC2 files are soft state: their
// columns are acquired lazily through a colstore.Pool, pinned per scan
// task, evicted under the pool budget, and reloaded bit-identically
// from the immutable files. Resident partitions are served as they are.
type PooledSource struct {
	pool   *colstore.Pool
	files  []*pooledFile
	leaves []pooledLeaf
	metas  []engine.LeafMeta

	closeOnce sync.Once
	closeErr  error
}

// NewPooledSource opens the given HVC2 files and plans micropartitions
// of at most microRows rows by SplitRows' rule. A file in any other
// format fails with an error wrapping colstore.ErrNotHVC2. The source
// owns its mapped handles; Close them when done. A NewLoader loader
// shares handles across its loads instead.
func NewPooledSource(pool *colstore.Pool, specs []PooledFileSpec, microRows int) (*PooledSource, error) {
	s := &PooledSource{pool: pool}
	for _, spec := range specs {
		if err := s.addFile(spec, microRows, nil); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// NewFileSource serves HVC2 files that are already open through pool,
// each whole file as one partition under the ID at the same index of
// ids. The caller keeps the handles: Close on the source leaves them
// open, so one handle can back every source built over it.
func NewFileSource(pool *colstore.Pool, files []*colstore.File, ids []string) *PooledSource {
	s := &PooledSource{pool: pool}
	for i, f := range files {
		s.leaves = append(s.leaves, pooledLeaf{file: &pooledFile{File: f}})
		s.metas = append(s.metas, engine.LeafMeta{ID: ids[i], Hi: f.Rows(), Bound: f.Rows()})
	}
	return s
}

// addFile maps one HVC2 file, through cache when it is not nil, and
// appends its micropartitions.
func (s *PooledSource) addFile(spec PooledFileSpec, microRows int, cache *fileCache) error {
	var (
		f   *colstore.File
		err error
	)
	if cache != nil {
		f, err = cache.open(spec.Path)
	} else {
		f, err = colstore.OpenFile(spec.Path)
	}
	if err != nil {
		return err
	}
	pf := &pooledFile{File: f, owned: cache == nil}
	s.files = append(s.files, pf)
	splitRows(spec.ID, f.Rows(), microRows, func(id string, lo, hi int) {
		s.leaves = append(s.leaves, pooledLeaf{file: pf})
		s.metas = append(s.metas, engine.LeafMeta{ID: id, Lo: lo, Hi: hi, Bound: f.Rows()})
	})
	return nil
}

// addResident appends a partition already on the heap.
func (s *PooledSource) addResident(t *table.Table) {
	max := t.Members().Max()
	s.leaves = append(s.leaves, pooledLeaf{resident: t})
	s.metas = append(s.metas, engine.LeafMeta{ID: t.ID(), Hi: max, Bound: max})
}

// Leaves implements engine.LeafSource.
func (s *PooledSource) Leaves() []engine.LeafMeta { return s.metas }

// Acquire implements engine.LeafSource: it materializes the requested
// columns through the pool (pinning them until release) and assembles
// the partition view. Split partitions share whole-file columns, so a
// file's column is resident at most once regardless of how many of its
// micropartitions are being scanned.
func (s *PooledSource) Acquire(i int, cols []string) (*table.Table, func(), error) {
	l := s.leaves[i]
	if l.resident != nil {
		return l.resident, func() {}, nil
	}
	f := l.file
	schema := f.Schema()

	want := make([]int, 0, schema.NumColumns())
	if cols == nil {
		for ci := 0; ci < schema.NumColumns(); ci++ {
			want = append(want, ci)
		}
	} else {
		// Schema order, requested subset; unknown names are skipped so a
		// sketch over a missing column fails with its ordinary error.
		req := make(map[string]bool, len(cols))
		for _, c := range cols {
			req[c] = true
		}
		for ci, cd := range schema.Columns {
			if req[cd.Name] {
				want = append(want, ci)
			}
		}
	}

	outCols := make([]table.Column, len(want))
	outDesc := make([]table.ColumnDesc, len(want))
	releases := make([]func(), 0, len(want))
	release := func() {
		for _, r := range releases {
			r()
		}
	}
	for k, ci := range want {
		cd := schema.Columns[ci]
		load := func() (table.Column, int64, func(), error) { return f.Column(ci) }
		col, rel, err := s.pool.Acquire(colstore.ColKey{Source: f.Path(), Column: cd.Name}, load)
		if err != nil {
			release()
			return nil, nil, err
		}
		outCols[k] = col
		outDesc[k] = cd
		releases = append(releases, rel)
	}

	var once sync.Once
	m := s.metas[i]
	return table.New(m.ID, table.NewSchema(outDesc...), outCols, table.NewRangeMembership(m.Lo, m.Hi, m.Bound)),
		func() { once.Do(release) }, nil
}

// Pool returns the backing pool (stats, eviction).
func (s *PooledSource) Pool() *colstore.Pool { return s.pool }

// Close unmaps the backing files this source owns (cache-shared
// handles stay open for the loader's other datasets). The source (and
// every table acquired from it) must no longer be used.
func (s *PooledSource) Close() error {
	s.closeOnce.Do(func() {
		for _, f := range s.files {
			if f.owned {
				if err := f.Close(); err != nil && s.closeErr == nil {
					s.closeErr = err
				}
			}
		}
	})
	return s.closeErr
}
