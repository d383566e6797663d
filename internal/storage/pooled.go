package storage

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/table"
)

// This file wires the column store's budgeted buffer pool into the
// engine: PooledSource serves the micropartitions of a set of HVC2
// files as an engine.LeafSource, so column data is materialized only
// while a scan task reads it (zero-copy from the mapping) and evicted
// under the pool budget between touches. Partition IDs and split
// geometry mirror the eager loader exactly (LoadSource + SplitRows),
// which makes the pooled and heap-loaded paths bit-identical — the
// property the testkit differential harness asserts.

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
// live as long as the loader (sources are immutable snapshots, so a
// cached mapping never goes stale).
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

// pooledLeaf is one micropartition: a row range of a backing file.
type pooledLeaf struct {
	file   int
	id     string
	lo, hi int
	whole  bool // covers the entire file: full membership
}

// PooledSource implements engine.LeafSource over HVC2 files through a
// colstore.Pool. All column data is soft state: acquired lazily,
// pinned per scan task, evicted under the pool budget, and reloaded
// bit-identically from the immutable files.
type PooledSource struct {
	pool   *colstore.Pool
	files  []*pooledFile
	leaves []pooledLeaf
	metas  []engine.LeafMeta

	closeOnce sync.Once
	closeErr  error
}

// NewPooledSource opens the given HVC2 files and plans micropartitions
// of at most microRows rows, mirroring SplitRows. A file in any other
// format fails with an error wrapping colstore.ErrNotHVC2. The source
// owns its mapped handles; Close them when done. Loaders built by
// NewPooledLoader share handles across loads through a fileCache
// instead (see newPooledSource).
func NewPooledSource(pool *colstore.Pool, specs []PooledFileSpec, microRows int) (*PooledSource, error) {
	return newPooledSource(pool, specs, microRows, nil)
}

func newPooledSource(pool *colstore.Pool, specs []PooledFileSpec, microRows int, cache *fileCache) (*PooledSource, error) {
	if microRows <= 0 {
		microRows = DefaultMicroRows
	}
	open := func(path string) (*colstore.File, bool, error) {
		if cache != nil {
			f, err := cache.open(path)
			return f, false, err
		}
		f, err := colstore.OpenFile(path)
		return f, true, err
	}
	s := &PooledSource{pool: pool}
	for _, spec := range specs {
		f, owned, err := open(spec.Path)
		if err != nil {
			s.Close()
			return nil, err
		}
		fi := len(s.files)
		s.files = append(s.files, &pooledFile{File: f, owned: owned})
		rows := f.Rows()
		if rows <= microRows {
			s.leaves = append(s.leaves, pooledLeaf{file: fi, id: spec.ID, lo: 0, hi: rows, whole: true})
			continue
		}
		k := 0
		for lo := 0; lo < rows; lo += microRows {
			hi := lo + microRows
			if hi > rows {
				hi = rows
			}
			id := fmt.Sprintf("%s#%d", spec.ID, k)
			s.leaves = append(s.leaves, pooledLeaf{file: fi, id: id, lo: lo, hi: hi})
			k++
		}
	}
	s.metas = make([]engine.LeafMeta, len(s.leaves))
	for i, l := range s.leaves {
		s.metas[i] = engine.LeafMeta{ID: l.id, Lo: l.lo, Hi: l.hi, Bound: s.files[l.file].Rows()}
	}
	return s, nil
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
	f := s.files[l.file]
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

	var members table.Membership
	if l.whole {
		members = table.FullMembership(f.Rows())
	} else {
		members = table.NewRangeMembership(l.lo, l.hi, f.Rows())
	}
	var once sync.Once
	return table.New(l.id, table.NewSchema(outDesc...), outCols, members),
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

// hvcSourceSpecs resolves a source spec into pooled file specs when —
// and only when — every data file it names is an .hvc file. IDs and
// scheme semantics mirror the eager loader (LoadFile/loadDirParts)
// exactly: a source the eager loader would reject — file: naming a
// directory, dir: naming a file — is declined here too, so configuring
// a pool never changes which source strings load or what their
// partitions are called.
func hvcSourceSpecs(source, id string) ([]PooledFileSpec, bool) {
	path := source
	wantDir := ""
	if scheme, rest, ok := strings.Cut(source, ":"); ok {
		switch scheme {
		case "file":
			path, wantDir = rest, "no"
		case "dir":
			path, wantDir = rest, "yes"
		default:
			return nil, false // registered schemes stay eager
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, false
	}
	if (wantDir == "yes" && !info.IsDir()) || (wantDir == "no" && info.IsDir()) {
		return nil, false // let the eager loader produce its error
	}
	if !info.IsDir() {
		if strings.ToLower(filepath.Ext(path)) != ".hvc" {
			return nil, false
		}
		return []PooledFileSpec{{Path: path, ID: id}}, true
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, false
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".hvc":
			names = append(names, e.Name())
		case ".csv", ".jsonl", ".json":
			return nil, false // mixed directory: eager loader handles it
		}
	}
	if len(names) == 0 {
		return nil, false
	}
	sort.Strings(names)
	specs := make([]PooledFileSpec, len(names))
	for i, name := range names {
		specs[i] = PooledFileSpec{Path: filepath.Join(path, name), ID: id + "/" + name}
	}
	return specs, true
}
