package ingest

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/table"
)

// SourcePrefix is the engine source-spec scheme for ingest datasets:
// "ingest:<name>" loads the live sealed partitions of the named dataset
// through a Store's WrapLoader.
const SourcePrefix = "ingest:"

// DirLister is the optional FS extension the Store uses to discover
// dataset directories under its root. OSFS, MemFS, and CrashFS all
// implement it.
type DirLister interface {
	// ListDirs lists the subdirectory names in dir, sorted.
	ListDirs(dir string) ([]string, error)
}

// StoreConfig tunes a Store and the datasets it manages.
type StoreConfig struct {
	// FS is the filesystem datasets live on (nil = the OS).
	FS FS
	// SegmentRows is the per-dataset auto-seal threshold (see Config).
	SegmentRows int
	// Metrics, when set, is shared by every dataset of the store.
	Metrics *Metrics
	// Pool serves the columns of every sealed partition of the store;
	// the server passes the pool its other sources use, so one
	// -pool-budget bounds both (nil = a private unlimited pool per
	// dataset).
	Pool *colstore.Pool
	// OnSeal, when set, runs after each durable seal of any dataset —
	// the serving layer advances the dataset's engine generation here.
	OnSeal func(dataset string, p Partition)
}

// Store manages the named ingest datasets under one root directory.
// Dataset names are single clean path elements; each maps to the
// directory <root>/<name>.
type Store struct {
	root string
	cfg  StoreConfig

	mu       sync.Mutex
	datasets map[string]*Dataset
	closed   bool
}

// NewStore returns a store rooted at dir. Existing datasets are opened
// (and recovered) lazily on first access, or eagerly via OpenAll.
func NewStore(root string, cfg StoreConfig) *Store {
	return &Store{root: root, cfg: cfg, datasets: make(map[string]*Dataset)}
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) fs() FS {
	if s.cfg.FS != nil {
		return s.cfg.FS
	}
	return OSFS{}
}

func (s *Store) datasetConfig(name string) Config {
	c := Config{FS: s.cfg.FS, SegmentRows: s.cfg.SegmentRows, Metrics: s.cfg.Metrics, Pool: s.cfg.Pool}
	if hook := s.cfg.OnSeal; hook != nil {
		c.OnSeal = func(p Partition) { hook(name, p) }
	}
	return c
}

// ValidName reports whether name is usable as a dataset name: a single
// clean path element with no separators or traversal.
func ValidName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("ingest: dataset name %q empty or too long", name)
	}
	if name == "." || name == ".." || strings.ContainsAny(name, "/\\:") {
		return fmt.Errorf("ingest: invalid dataset name %q", name)
	}
	return nil
}

// Create initializes a new dataset under the store.
func (s *Store) Create(name string, schema *table.Schema) (*Dataset, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("ingest: store is closed")
	}
	if _, ok := s.datasets[name]; ok {
		return nil, fmt.Errorf("ingest: dataset %q already exists", name)
	}
	d, err := Create(filepath.Join(s.root, name), schema, s.datasetConfig(name))
	if err != nil {
		return nil, err
	}
	s.datasets[name] = d
	return d, nil
}

// Get returns the named dataset, opening (recovering) it from disk on
// first access. ErrNoDataset reports an unknown name.
func (s *Store) Get(name string) (*Dataset, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("ingest: store is closed")
	}
	if d, ok := s.datasets[name]; ok {
		return d, nil
	}
	d, err := Open(filepath.Join(s.root, name), s.datasetConfig(name))
	if err != nil {
		return nil, err
	}
	s.datasets[name] = d
	return d, nil
}

// OpenAll discovers and opens every dataset under the root, returning
// the names opened. Directories that hold no recoverable dataset are
// skipped.
func (s *Store) OpenAll() ([]string, error) {
	lister, ok := s.fs().(DirLister)
	if !ok {
		return nil, errors.New("ingest: filesystem does not support discovery")
	}
	dirs, err := lister.ListDirs(s.root)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Fresh root: nothing to recover. Create it so a server
			// started with an empty -ingest-dir comes up writable.
			if mkErr := s.fs().MkdirAll(s.root); mkErr != nil {
				return nil, mkErr
			}
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, name := range dirs {
		if ValidName(name) != nil {
			continue
		}
		if _, err := s.Get(name); err != nil {
			if errors.Is(err, ErrNoDataset) {
				continue
			}
			return names, fmt.Errorf("ingest: opening dataset %q: %w", name, err)
		}
		names = append(names, name)
	}
	return names, nil
}

// Names lists the open datasets, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.datasets))
	for name := range s.datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Close seals every open segment and closes every dataset; the store
// rejects further access. Graceful shutdown calls this so buffered rows
// become durable before exit.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, d := range s.datasets {
		if err := d.Close(); first == nil {
			first = err
		}
	}
	return first
}

// WrapLoader returns an engine loader that serves "ingest:<name>"
// sources from this store and delegates everything else to inner. A
// dataset is one storage.PooledSource: each live sealed partition is
// one whole-file leaf with its stable table ID, its columns read through
// the store's pool from the handle the dataset keeps open. The loader
// re-reads the live set on every call, so the redo-log replay after a
// seal observes the current sealed prefix, opens only the new file, and
// shares every older column object with the views made before it.
func (s *Store) WrapLoader(inner engine.Loader, cfg engine.Config) engine.Loader {
	return func(id, source string) (engine.IDataSet, error) {
		name, ok := strings.CutPrefix(source, SourcePrefix)
		if !ok {
			if inner == nil {
				return nil, fmt.Errorf("ingest: unsupported source %q", source)
			}
			return inner(id, source)
		}
		d, err := s.Get(name)
		if err != nil {
			return nil, err
		}
		src, err := d.source()
		if err != nil {
			return nil, err
		}
		return engine.NewLocalSource(id, src, cfg), nil
	}
}
