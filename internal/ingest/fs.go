package ingest

import (
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/colstore"
)

// File is a writable file handle on an FS. Sync must not return until
// every byte previously written through the handle is durable.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the narrow filesystem surface the ingestion path writes
// through. Every durability-relevant operation of the sealing protocol
// (write, fsync, rename, directory fsync, truncate, remove) goes
// through this interface, so the crash harness can interpose an
// instrumented implementation that records the operation sequence and
// replays arbitrary crash points (see CrashFS).
//
// Path semantics are opaque strings: implementations may be rooted in
// the real filesystem (OSFS) or a flat in-memory namespace (MemFS).
// Callers always build paths with filepath.Join.
type FS interface {
	// Create creates or truncates a file for writing.
	Create(name string) (File, error)
	// OpenAppend opens a file for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// ReadFile returns the file's full contents.
	ReadFile(name string) ([]byte, error)
	// OpenHVC opens a sealed HVC2 partition for reading. Its columns
	// reach queries through the dataset's column pool, whatever the FS.
	OpenHVC(name string) (*colstore.File, error)
	// Rename atomically replaces newName with oldName's file.
	Rename(oldName, newName string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate cuts the file to size bytes.
	Truncate(name string, size int64) error
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself, making entry operations
	// (create, rename, remove) under it durable.
	SyncDir(dir string) error
}

// OSFS is the production FS: the operating system's filesystem.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OSFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// OpenHVC implements FS: the file is memory-mapped.
func (OSFS) OpenHVC(name string) (*colstore.File, error) { return colstore.OpenFile(name) }

// Rename implements FS.
func (OSFS) Rename(oldName, newName string) error { return os.Rename(oldName, newName) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ListDirs lists the subdirectory names in dir, sorted (the optional
// DirLister extension the Store uses to discover datasets).
func (OSFS) ListDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some platforms reject fsync on directories; treat that as a no-op
	// rather than failing the seal (the rename itself already happened).
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// dirOf returns the directory of a path for SyncDir calls.
func dirOf(path string) string { return filepath.Dir(path) }
