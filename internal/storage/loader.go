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

// splitRows is the one micropartition rule, shared by SplitRows and
// PooledSource: rows are cut in order into ranges of at most microRows
// rows. A source that fits in one range keeps its ID; otherwise range
// k is named id#k, so partition IDs are stable across reloads.
func splitRows(id string, rows, microRows int, leaf func(id string, lo, hi int)) {
	if microRows <= 0 {
		microRows = DefaultMicroRows
	}
	if rows <= microRows {
		leaf(id, 0, rows)
		return
	}
	for k, lo := 0, 0; lo < rows; k, lo = k+1, lo+microRows {
		leaf(fmt.Sprintf("%s#%d", id, k), lo, min(lo+microRows, rows))
	}
}

// SplitRows cuts a freshly loaded (full-membership) table into
// micropartitions of at most microRows rows, sharing column storage.
func SplitRows(t *table.Table, microRows int) []*table.Table {
	var parts []*table.Table
	splitRows(t.ID(), t.NumRows(), microRows, func(id string, lo, hi int) {
		if lo == 0 && hi == t.NumRows() {
			parts = append(parts, t)
			return
		}
		parts = append(parts, table.SliceRows(t, id, lo, hi))
	})
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

// LoadFile reads a row-format data file (.csv, .jsonl, .json) onto the
// heap. An .hvc file is never copied: the loader serves it mapped,
// through the column pool.
func LoadFile(path, id string) (*table.Table, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return ReadCSV(path, id, nil)
	case ".jsonl", ".json":
		return ReadJSONL(path, id, nil)
	default:
		return nil, fmt.Errorf("storage: unknown file format %q", path)
	}
}

// NewLoader builds the engine.Loader that resolves source specs into
// micropartitioned leaf sources (PooledSource):
//
//	file:<path>      one data file
//	dir:<path>       every data file in the directory, by name
//	<scheme>:<rest>  a registered custom scheme
//	<path>           bare paths behave like file: or dir: by stat
//
// Every .hvc file is served mapped through pool, the paper's data
// cache organized by (source, column): columns materialize on first
// touch and stay resident only while the budget allows. CSV and JSON
// lines files and registered schemes become resident partitions of the
// same source. A nil pool means a private unlimited one. Mapped file
// handles are shared across the loader's loads, so redo-log replays of
// one source reuse one mapping.
func NewLoader(cfg engine.Config, microRows int, pool *colstore.Pool) engine.Loader {
	if pool == nil {
		pool = colstore.NewPool(0)
	}
	handles := &fileCache{}
	return func(id, source string) (engine.IDataSet, error) {
		src, err := openSource(pool, handles, source, id, microRows)
		if err != nil {
			return nil, err
		}
		return engine.NewLocalSource(id, src, cfg), nil
	}
}

// openSource resolves source (see NewLoader) into one leaf source.
func openSource(pool *colstore.Pool, cache *fileCache, source, id string, microRows int) (*PooledSource, error) {
	form, path, ok := strings.Cut(source, ":")
	if !ok {
		info, err := os.Stat(source)
		if err != nil {
			return nil, err
		}
		form, path = "file", source
		if info.IsDir() {
			form = "dir"
		}
	}
	s := &PooledSource{pool: pool}
	var specs []PooledFileSpec
	switch form {
	case "file":
		specs = []PooledFileSpec{{Path: path, ID: id}}
	case "dir":
		var err error
		if specs, err = dirFiles(path, id); err != nil {
			return nil, err
		}
	default:
		schemesMu.RLock()
		loader := schemes[form]
		schemesMu.RUnlock()
		if loader == nil {
			return nil, fmt.Errorf("storage: unknown source scheme %q", form)
		}
		parts, err := loader(path, id, microRows)
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			s.addResident(p)
		}
		return s, nil
	}
	for _, spec := range specs {
		var err error
		if strings.ToLower(filepath.Ext(spec.Path)) == ".hvc" {
			err = s.addFile(spec, microRows, cache)
		} else {
			var t *table.Table
			if t, err = LoadFile(spec.Path, spec.ID); err == nil {
				for _, p := range SplitRows(t, microRows) {
					s.addResident(p)
				}
			}
		}
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// dirFiles lists the data files of a directory in name order, each
// under the ID id/<name>.
func dirFiles(dir, id string) ([]PooledFileSpec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".csv", ".jsonl", ".json", ".hvc":
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("storage: no data files in %q", dir)
	}
	sort.Strings(names)
	specs := make([]PooledFileSpec, len(names))
	for i, name := range names {
		specs[i] = PooledFileSpec{Path: filepath.Join(dir, name), ID: id + "/" + name}
	}
	return specs, nil
}
