package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/table"
)

// DefaultMicroRows is the default micropartition size. The paper uses
// 10–20 M rows per micropartition on server hardware; the default here
// is tuned for a single machine and is configurable everywhere.
const DefaultMicroRows = 250000

// SplitRows cuts a freshly loaded (full-membership) table into
// micropartitions of at most microRows rows, sharing column storage.
// Partition IDs derive from the table ID and are stable across reloads.
func SplitRows(t *table.Table, microRows int) []*table.Table {
	if microRows <= 0 {
		microRows = DefaultMicroRows
	}
	n := t.NumRows()
	if n <= microRows {
		return []*table.Table{t}
	}
	var parts []*table.Table
	for lo := 0; lo < n; lo += microRows {
		hi := lo + microRows
		if hi > n {
			hi = n
		}
		parts = append(parts, table.SliceRows(t, fmt.Sprintf("%s#%d", t.ID(), len(parts)), lo, hi))
	}
	return parts
}

// SchemeLoader loads the partitions of a custom source scheme. rest is
// the source spec after "scheme:".
type SchemeLoader func(rest, id string, microRows int) ([]*table.Table, error)

var (
	schemesMu sync.RWMutex
	schemes   = make(map[string]SchemeLoader)
)

// RegisterScheme installs a custom source scheme (e.g. the synthetic
// flights generator registers "flights"). Registration is global;
// loading a source "name:rest" dispatches to the loader.
func RegisterScheme(name string, loader SchemeLoader) {
	schemesMu.Lock()
	defer schemesMu.Unlock()
	schemes[name] = loader
}

// LoadFile reads a single data file, dispatching on extension
// (.csv, .jsonl, .hvc).
func LoadFile(path, id string) (*table.Table, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return ReadCSV(path, id, nil)
	case ".jsonl", ".json":
		return ReadJSONL(path, id, nil)
	case ".hvc":
		return ReadHVC(path, id)
	default:
		return nil, fmt.Errorf("storage: unknown file format %q", path)
	}
}

// ReadHVC loads a whole HVC2 file onto the heap as a table with the
// given ID: the eager path for .hvc files no pool serves, and the heap
// reference the pooled path is tested against. Any other content — a
// leftover HVC1 file included — fails with an error that wraps
// colstore.ErrNotHVC2 and names the path.
func ReadHVC(path, id string) (*table.Table, error) {
	return colstore.ReadHVC2File(path, id, nil)
}

// LoadSource resolves a source spec into micropartitions:
//
//	file:<path>   one data file, split into micropartitions
//	dir:<path>    every data file in the directory, each split
//	<scheme>:<rest>  a registered custom scheme
//	<path>        bare paths behave like file: or dir: by stat
func LoadSource(source, id string, microRows int) ([]*table.Table, error) {
	if scheme, rest, ok := strings.Cut(source, ":"); ok {
		switch scheme {
		case "file":
			return loadFileParts(rest, id, microRows)
		case "dir":
			return loadDirParts(rest, id, microRows)
		default:
			schemesMu.RLock()
			loader := schemes[scheme]
			schemesMu.RUnlock()
			if loader != nil {
				return loader(rest, id, microRows)
			}
			return nil, fmt.Errorf("storage: unknown source scheme %q", scheme)
		}
	}
	info, err := os.Stat(source)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return loadDirParts(source, id, microRows)
	}
	return loadFileParts(source, id, microRows)
}

func loadFileParts(path, id string, microRows int) ([]*table.Table, error) {
	t, err := LoadFile(path, id)
	if err != nil {
		return nil, err
	}
	return SplitRows(t, microRows), nil
}

func loadDirParts(dir, id string, microRows int) ([]*table.Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".csv", ".jsonl", ".json", ".hvc":
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("storage: no data files in %q", dir)
	}
	sort.Strings(files)
	var parts []*table.Table
	for _, name := range files {
		t, err := LoadFile(filepath.Join(dir, name), id+"/"+name)
		if err != nil {
			return nil, err
		}
		parts = append(parts, SplitRows(t, microRows)...)
	}
	return parts, nil
}

// NewLoader adapts LoadSource into an engine.Loader with the given
// engine configuration and micropartition size. Every source loads
// eagerly onto the heap.
func NewLoader(cfg engine.Config, microRows int) engine.Loader {
	return NewPooledLoader(cfg, microRows, nil)
}

// NewPooledLoader builds an engine.Loader that serves all-HVC sources
// through pool as lazy, budgeted leaf sources (PooledSource), sharing
// mapped file handles across loads so redo-log replays of one source
// reuse one mapping. Every other source — CSV, JSONL, registered
// schemes, mixed directories — loads eagerly, as does everything when
// pool is nil.
func NewPooledLoader(cfg engine.Config, microRows int, pool *colstore.Pool) engine.Loader {
	handles := &fileCache{}
	return func(id, source string) (engine.IDataSet, error) {
		if pool != nil {
			if specs, ok := hvcSourceSpecs(source, id); ok {
				src, err := newPooledSource(pool, specs, microRows, handles)
				if err != nil {
					return nil, err
				}
				return engine.NewLocalSource(id, src, cfg), nil
			}
		}
		parts, err := LoadSource(source, id, microRows)
		if err != nil {
			return nil, err
		}
		return engine.NewLocal(id, parts, cfg), nil
	}
}
