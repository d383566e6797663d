package ingest

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/colstore"
)

// MemFS is a flat in-memory FS. It backs the crash harness: a
// simulated post-crash disk image is a MemFS, and recovery runs against
// it exactly as it would against the real filesystem. All operations
// are immediately "durable" (there is no cache layer to lose), so Sync
// and SyncDir are no-ops.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte), dirs: make(map[string]bool)}
}

type memFile struct {
	fs     *MemFS
	name   string
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("ingest: write to closed file %q", f.name)
	}
	data, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("ingest: write to removed file %q", f.name)
	}
	f.fs.files[f.name] = append(data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = []byte{}
	return &memFile{fs: m, name: name}, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = []byte{}
	}
	return &memFile{fs: m, name: name}, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

// OpenHVC implements FS over a private copy of the file's bytes, so
// the image under the columns never changes.
func (m *MemFS) OpenHVC(name string) (*colstore.File, error) {
	data, err := m.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return colstore.NewImageFile(name, data)
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldName]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldName, Err: fs.ErrNotExist}
	}
	delete(m.files, oldName)
	m.files[newName] = data
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(data)) {
		return fmt.Errorf("ingest: truncate %q to %d bytes (have %d)", name, size, len(data))
	}
	m.files[name] = data[:size]
	return nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	if len(names) == 0 && !m.dirs[dir] {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

// ListDirs lists the subdirectory names under dir (DirLister).
func (m *MemFS) ListDirs(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[string]bool{}
	add := func(d string) {
		for d != "." && d != "/" && d != "" {
			parent := filepath.Dir(d)
			if parent == dir {
				seen[filepath.Base(d)] = true
				return
			}
			d = parent
		}
	}
	for path := range m.files {
		add(filepath.Dir(path))
	}
	for d := range m.dirs {
		add(d)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS.
func (m *MemFS) SyncDir(dir string) error { return nil }

// put installs a file directly (crash-image construction).
func (m *MemFS) put(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = data
	m.dirs[filepath.Dir(name)] = true
}
