package ingest

import (
	"bytes"
	"fmt"
	"path/filepath"

	"repro/internal/colstore"
)

// CrashFS is the instrumented FS behind the crash-point battery. It
// behaves exactly like a MemFS for the process using it, but records
// every durability-relevant operation (create, write, sync, rename,
// remove, truncate, directory sync) in order. SimulateCrash then
// replays a prefix of that sequence into a fresh MemFS under a chosen
// persistence policy, producing the disk image a kill at that point
// could have left behind; recovery is run against the image and must
// always yield a consistent sealed prefix.
//
// The persistence model is per-file: content written since the last
// Sync on the file may be lost (or torn — partially persisted), and
// namespace operations (create, rename, remove) since the last SyncDir
// on the parent directory may be lost independently of content. This is
// deliberately adversarial within POSIX semantics: fsync(file) makes
// content durable but not the entry; only fsync(dir) pins the entry.
type CrashFS struct {
	mem *MemFS // live volatile view the running process sees
	ops []crashOp
}

type opKind uint8

const (
	opCreate opKind = iota + 1
	opWrite
	opSync
	opRename
	opRemove
	opTruncate
	opSyncDir
	opMkdir
)

type crashOp struct {
	kind  opKind
	name  string
	name2 string // rename target
	data  []byte // write payload (copied)
	size  int64  // truncate size
}

// CrashPolicy selects how unsynced state behaves at the simulated kill.
type CrashPolicy int

const (
	// CrashKeepAll keeps every volatile byte and entry: a plain process
	// kill with the OS (and its page cache) surviving.
	CrashKeepAll CrashPolicy = iota
	// CrashDropUnsynced loses everything not explicitly made durable: a
	// power cut against a write-back cache that never flushed on its own.
	CrashDropUnsynced
	// CrashTorn persists a pseudo-random (deterministic in the salt)
	// prefix of each file's unsynced tail and flips a deterministic coin
	// per unsynced namespace operation — torn writes and half-applied
	// renames, the adversarial middle ground.
	CrashTorn
)

// NewCrashFS returns an empty recording filesystem.
func NewCrashFS() *CrashFS {
	return &CrashFS{mem: NewMemFS()}
}

func (c *CrashFS) record(op crashOp) {
	c.mem.mu.Lock()
	c.ops = append(c.ops, op)
	c.mem.mu.Unlock()
}

// Ops returns how many operations have been recorded so far.
func (c *CrashFS) Ops() int {
	c.mem.mu.Lock()
	defer c.mem.mu.Unlock()
	return len(c.ops)
}

// DescribeOp renders op i for failure messages.
func (c *CrashFS) DescribeOp(i int) string {
	c.mem.mu.Lock()
	defer c.mem.mu.Unlock()
	if i < 0 || i >= len(c.ops) {
		return fmt.Sprintf("op %d of %d", i, len(c.ops))
	}
	op := c.ops[i]
	switch op.kind {
	case opCreate:
		return fmt.Sprintf("create %s", op.name)
	case opWrite:
		return fmt.Sprintf("write %s (%d bytes)", op.name, len(op.data))
	case opSync:
		return fmt.Sprintf("sync %s", op.name)
	case opRename:
		return fmt.Sprintf("rename %s -> %s", op.name, op.name2)
	case opRemove:
		return fmt.Sprintf("remove %s", op.name)
	case opTruncate:
		return fmt.Sprintf("truncate %s to %d", op.name, op.size)
	case opSyncDir:
		return fmt.Sprintf("syncdir %s", op.name)
	case opMkdir:
		return fmt.Sprintf("mkdir %s", op.name)
	}
	return "unknown op"
}

type crashFile struct {
	c    *CrashFS
	f    File
	name string
}

func (f *crashFile) Write(p []byte) (int, error) {
	n, err := f.f.Write(p)
	if n > 0 {
		f.c.record(crashOp{kind: opWrite, name: f.name, data: append([]byte(nil), p[:n]...)})
	}
	return n, err
}

func (f *crashFile) Sync() error {
	f.c.record(crashOp{kind: opSync, name: f.name})
	return f.f.Sync()
}

func (f *crashFile) Close() error { return f.f.Close() }

// Create implements FS.
func (c *CrashFS) Create(name string) (File, error) {
	f, err := c.mem.Create(name)
	if err != nil {
		return nil, err
	}
	c.record(crashOp{kind: opCreate, name: name})
	return &crashFile{c: c, f: f, name: name}, nil
}

// OpenAppend implements FS.
func (c *CrashFS) OpenAppend(name string) (File, error) {
	c.mem.mu.Lock()
	_, existed := c.mem.files[name]
	c.mem.mu.Unlock()
	f, err := c.mem.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	if !existed {
		c.record(crashOp{kind: opCreate, name: name})
	}
	return &crashFile{c: c, f: f, name: name}, nil
}

// ReadFile implements FS.
func (c *CrashFS) ReadFile(name string) ([]byte, error) { return c.mem.ReadFile(name) }

// OpenHVC implements FS; a read, so nothing is recorded.
func (c *CrashFS) OpenHVC(name string) (*colstore.File, error) { return c.mem.OpenHVC(name) }

// Rename implements FS.
func (c *CrashFS) Rename(oldName, newName string) error {
	if err := c.mem.Rename(oldName, newName); err != nil {
		return err
	}
	c.record(crashOp{kind: opRename, name: oldName, name2: newName})
	return nil
}

// Remove implements FS.
func (c *CrashFS) Remove(name string) error {
	if err := c.mem.Remove(name); err != nil {
		return err
	}
	c.record(crashOp{kind: opRemove, name: name})
	return nil
}

// Truncate implements FS.
func (c *CrashFS) Truncate(name string, size int64) error {
	if err := c.mem.Truncate(name, size); err != nil {
		return err
	}
	c.record(crashOp{kind: opTruncate, name: name, size: size})
	return nil
}

// ReadDir implements FS.
func (c *CrashFS) ReadDir(dir string) ([]string, error) { return c.mem.ReadDir(dir) }

// ListDirs implements DirLister.
func (c *CrashFS) ListDirs(dir string) ([]string, error) { return c.mem.ListDirs(dir) }

// MkdirAll implements FS.
func (c *CrashFS) MkdirAll(dir string) error {
	if err := c.mem.MkdirAll(dir); err != nil {
		return err
	}
	c.record(crashOp{kind: opMkdir, name: dir})
	return nil
}

// SyncDir implements FS.
func (c *CrashFS) SyncDir(dir string) error {
	c.record(crashOp{kind: opSyncDir, name: dir})
	return c.mem.SyncDir(dir)
}

// rfile is the replay model of one inode: volatile vs durably-synced
// content, and the name under which its directory entry is durable (""
// when the entry was never synced, or its removal was).
type rfile struct {
	vol, durable     []byte
	volName, durName string
	born             int // op index of creation, for deterministic coins
}

// crashMix is a splitmix-style finalizer for the torn policy's
// deterministic coins.
func crashMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SimulateCrash replays the first k recorded operations and returns the
// disk image a crash immediately after operation k-1 could leave under
// the policy. salt drives the torn policy's deterministic choices; it
// is ignored by the other policies.
func (c *CrashFS) SimulateCrash(k int, policy CrashPolicy, salt uint64) *MemFS {
	c.mem.mu.Lock()
	ops := append([]crashOp(nil), c.ops[:min(k, len(c.ops))]...)
	c.mem.mu.Unlock()

	var (
		all    []*rfile
		byName = map[string]*rfile{}
		dirs   []string
	)
	for i, op := range ops {
		switch op.kind {
		case opCreate:
			if old := byName[op.name]; old != nil {
				old.volName = "" // truncated over: the old inode's content is gone
				old.vol, old.durable = nil, nil
			}
			f := &rfile{volName: op.name, born: i}
			byName[op.name] = f
			all = append(all, f)
		case opWrite:
			if f := byName[op.name]; f != nil {
				f.vol = append(f.vol, op.data...)
			}
		case opSync:
			if f := byName[op.name]; f != nil {
				f.durable = append([]byte(nil), f.vol...)
			}
		case opRename:
			f := byName[op.name]
			if f == nil {
				continue
			}
			delete(byName, op.name)
			if tgt := byName[op.name2]; tgt != nil {
				tgt.volName = ""
				tgt.vol, tgt.durable = nil, nil
			}
			f.volName = op.name2
			byName[op.name2] = f
		case opRemove:
			if f := byName[op.name]; f != nil {
				delete(byName, op.name)
				f.volName = ""
			}
		case opTruncate:
			if f := byName[op.name]; f != nil && op.size >= 0 && op.size <= int64(len(f.vol)) {
				f.vol = f.vol[:op.size]
			}
		case opSyncDir:
			for _, f := range all {
				switch {
				case f.volName != "" && filepath.Dir(f.volName) == op.name:
					f.durName = f.volName
				case f.volName == "" && f.durName != "" && filepath.Dir(f.durName) == op.name:
					f.durName = "" // removal (or overwrite) is now durable
				}
			}
		case opMkdir:
			dirs = append(dirs, op.name)
		}
	}

	out := NewMemFS()
	for _, d := range dirs {
		out.MkdirAll(d)
	}
	for idx, f := range all {
		name, content := f.crashState(policy, salt, uint64(idx))
		if name != "" {
			out.put(name, content)
		}
	}
	return out
}

// crashState resolves one inode's post-crash name and content.
func (f *rfile) crashState(policy CrashPolicy, salt, idx uint64) (string, []byte) {
	switch policy {
	case CrashKeepAll:
		return f.volName, append([]byte(nil), f.vol...)
	case CrashDropUnsynced:
		if f.durName == "" {
			return "", nil
		}
		return f.durName, append([]byte(nil), f.durable...)
	default: // CrashTorn
		name := f.durName
		if f.volName != f.durName {
			// The pending namespace op (create/rename/remove) may or may
			// not have reached disk on its own.
			if crashMix(salt^idx^uint64(f.born)<<17)&1 == 0 {
				name = f.volName
			}
		}
		if name == "" {
			return "", nil
		}
		content := append([]byte(nil), f.durable...)
		if len(f.vol) > len(f.durable) && bytes.HasPrefix(f.vol, f.durable) {
			tail := f.vol[len(f.durable):]
			keep := int(crashMix(salt^(idx<<21)^uint64(len(tail))) % uint64(len(tail)+1))
			content = append(content, tail[:keep]...)
		} else if !bytes.Equal(f.vol, f.durable) && crashMix(salt^(idx<<7))&1 == 0 {
			content = append([]byte(nil), f.vol...)
		}
		return name, content
	}
}
