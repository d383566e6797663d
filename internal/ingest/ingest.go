// Package ingest is the crash-safe streaming ingestion path: an
// append-only dataset whose durable form is a directory of immutable
// HVC2 partition files plus one append-only manifest log.
//
// # Sealing protocol
//
// Writers buffer row batches into an open segment (volatile by
// contract: rows are durable only once sealed). Seal freezes the
// segment into one HVC2 partition and makes it durable in five ordered
// steps:
//
//  1. write the partition image to part-NNNNNN.hvc.tmp
//  2. fsync the temp file — content durable
//  3. rename temp → part-NNNNNN.hvc
//  4. fsync the directory — the entry durable
//  5. append a CRC-framed seal record to MANIFEST and fsync it
//
// Only step 5 commits: a partition file is live exactly when a valid
// manifest record names it. A crash at any point leaves either a temp
// file (steps 1–3), an unreferenced partition file (steps 3–5), or a
// torn manifest tail — all invisible to queries and removed by
// recovery. A seal record can become durable only after steps 2 and 4,
// so a referenced partition is always complete; recovery verifies this
// invariant on every referenced file.
//
// # Recovery
//
// Open scans the manifest, truncates it at the first torn or corrupt
// record (see manifest.go for the hardened reader), verifies every
// referenced partition file, and garbage-collects everything else in
// the directory — temp files and unreferenced partitions — syncing the
// directory before the dataset accepts new appends, so a later crash
// cannot resurrect a removed file under a sequence number that has been
// reissued. Verifying a partition opens it (FS.OpenHVC: the header and
// the column directory), checks its row count against the manifest and
// every column block's CRC, and decodes nothing; a block's section
// bounds, dictionary and codes are checked when its column is first
// materialized, as for any .hvc file.
//
// # Queries and standing queries
//
// A sealed partition is an .hvc file like any other: the dataset keeps
// one open handle per live seal, and queries read its columns through
// the dataset's colstore.Pool — mapped on the OS filesystem, from an
// immutable image on the in-memory ones — loading only the columns a
// sketch touches. Each seal is one partition with a stable ID
// ("<dataset>/part-NNNNNN"); stable IDs keep per-partition sampling
// seeds — and therefore every sketch result — bit-identical across
// reloads. Standing queries (standing.go) exploit summary mergeability:
// a registered sketch folds each newly sealed partition's summary into
// its running result instead of rescanning, in seal order, reading the
// partition through the same handle and pool, so the running result is
// bit-identical to a from-scratch fold over the same sealed prefix.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/table"
)

const (
	manifestName = "MANIFEST"
	tmpSuffix    = ".tmp"

	// DefaultSegmentRows triggers an automatic seal when the open
	// segment reaches it. It is a trigger, not a cap: one oversized
	// Append may exceed it, sealing the whole batch as one partition.
	DefaultSegmentRows = 1 << 18
)

// partName renders the partition file name for a sequence number.
func partName(seq uint64) string { return fmt.Sprintf("part-%06d.hvc", seq) }

// Partition describes one sealed, live partition.
type Partition struct {
	// Seq is the 1-based seal sequence number.
	Seq uint64
	// Name is the partition file name within the dataset directory.
	Name string
	// Rows is the partition's row count.
	Rows int
}

// Config tunes a Dataset.
type Config struct {
	// FS is the filesystem the dataset lives on (nil = the OS).
	FS FS
	// SegmentRows is the auto-seal threshold (0 = DefaultSegmentRows,
	// < 0 disables auto-seal: only explicit Seal calls seal).
	SegmentRows int
	// Metrics, when set, receives ingestion telemetry.
	Metrics *Metrics
	// Pool serves the sealed partitions' columns (nil = a private
	// unlimited pool).
	Pool *colstore.Pool
	// OnSeal, when set, runs after each durable seal (and after standing
	// queries were re-merged) — the hook the serving layer uses to
	// advance the dataset's engine generation.
	OnSeal func(Partition)
}

func (c Config) fs() FS {
	if c.FS != nil {
		return c.FS
	}
	return OSFS{}
}

func (c Config) segmentRows() int {
	if c.SegmentRows == 0 {
		return DefaultSegmentRows
	}
	return c.SegmentRows
}

// Dataset is one append-only ingest dataset rooted in a directory.
// All methods are safe for concurrent use; appends and seals serialize.
type Dataset struct {
	dir    string
	name   string
	fs     FS
	cfg    Config
	schema *table.Schema
	m      *Metrics
	pool   *colstore.Pool

	mu       sync.Mutex
	manifest File // open append handle
	seals    []sealRecord
	files    []*colstore.File // files[i] serves seals[i]; nil until first opened
	seg      *table.Builder
	segRows  int
	gen      uint64
	standing []*StandingQuery
	nextSID  int
	failed   error // sticky mid-protocol I/O failure; reopen to recover
	closed   bool
}

// Create initializes a fresh dataset in dir with the given schema,
// failing if a recoverable dataset already exists there. The manifest
// (header plus schema record) is written atomically — temp, fsync,
// rename, dir fsync — so a crash during Create leaves either no
// dataset or a complete empty one; stray files from such a crash are
// swept here.
func Create(dir string, schema *table.Schema, cfg Config) (*Dataset, error) {
	fsys := cfg.fs()
	if schema == nil || schema.NumColumns() == 0 {
		return nil, fmt.Errorf("ingest: empty schema for %s", dir)
	}
	for _, cd := range schema.Columns {
		switch cd.Kind {
		case table.KindInt, table.KindDouble, table.KindString, table.KindDate:
		default:
			return nil, fmt.Errorf("ingest: column %q kind %v not storable", cd.Name, cd.Kind)
		}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, err
	}
	mpath := filepath.Join(dir, manifestName)
	if _, err := readManifest(fsys, mpath); err == nil {
		return nil, fmt.Errorf("ingest: dataset already exists in %s", dir)
	} else if !errors.Is(err, ErrNoDataset) {
		return nil, err
	}
	tmp := mpath + tmpSuffix
	if err := writeFileAtomic(fsys, tmp, mpath, func(f File) error {
		if _, err := f.Write(manifestMagic[:]); err != nil {
			return err
		}
		_, err := f.Write(frameRecord(encodeSchemaRecord(schema)))
		return err
	}); err != nil {
		return nil, fmt.Errorf("ingest: writing manifest: %w", err)
	}
	d := newDataset(dir, schema, cfg)
	// A crash in an earlier Create can leave stray files; no seal can
	// have happened (the schema record precedes all seals), so everything
	// but the fresh manifest goes.
	if err := d.gc(nil); err != nil {
		return nil, err
	}
	if err := d.openManifestHandle(); err != nil {
		return nil, err
	}
	return d, nil
}

// Open recovers the dataset in dir: it scans the manifest, truncates a
// torn tail, verifies every referenced partition file, and removes
// orphans. ErrNoDataset reports an absent (or never-completed) dataset.
func Open(dir string, cfg Config) (*Dataset, error) {
	fsys := cfg.fs()
	m := cfg.metrics()
	mpath := filepath.Join(dir, manifestName)
	view, err := readManifest(fsys, mpath)
	if err != nil {
		return nil, err
	}
	m.Recoveries.Inc()
	if view.torn {
		if err := fsys.Truncate(mpath, view.validLen); err != nil {
			return nil, fmt.Errorf("ingest: truncating torn manifest: %w", err)
		}
		m.TornTruncated.Inc()
	}
	d := newDataset(dir, view.schema, cfg)
	d.seals = view.seals
	d.files = make([]*colstore.File, len(view.seals))
	d.gen = uint64(len(view.seals))
	if err := d.recover(); err != nil {
		for _, f := range d.files {
			if f != nil {
				f.Close()
			}
		}
		return nil, err
	}
	m.LivePartitions.Add(int64(len(view.seals)))
	return d, nil
}

// recover verifies the live partitions and sweeps everything else. The
// sealing protocol guarantees a referenced partition was fully durable
// before its record could be; verify it (the file opens, its header and
// directory parse, it has the recorded row count and every block passes
// its CRC) so a violated invariant surfaces here, loudly, not as a torn
// scan. The verified handles serve the first query.
func (d *Dataset) recover() error {
	for i, rec := range d.seals {
		f, err := d.fileLocked(i)
		if err == nil {
			err = f.Verify()
		}
		if err != nil {
			return fmt.Errorf("ingest: manifest references unreadable partition %s: %w", rec.Name, err)
		}
	}
	if err := d.gc(d.seals); err != nil {
		return err
	}
	return d.openManifestHandle()
}

func newDataset(dir string, schema *table.Schema, cfg Config) *Dataset {
	pool := cfg.Pool
	if pool == nil {
		pool = colstore.NewPool(0)
	}
	return &Dataset{
		dir:    dir,
		name:   filepath.Base(dir),
		fs:     cfg.fs(),
		cfg:    cfg,
		schema: schema,
		m:      cfg.metrics(),
		pool:   pool,
		seg:    table.NewBuilder(schema, 0),
	}
}

func (d *Dataset) openManifestHandle() error {
	f, err := d.fs.OpenAppend(filepath.Join(d.dir, manifestName))
	if err != nil {
		return err
	}
	// After a truncation, make the new length durable before appending.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	d.manifest = f
	return nil
}

// gc removes every file in the directory that is neither the manifest
// nor a live partition, then syncs the directory so removals are
// durable before any new sequence number can be reissued.
func (d *Dataset) gc(live []sealRecord) error {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return err
	}
	keep := map[string]bool{manifestName: true}
	for _, rec := range live {
		keep[rec.Name] = true
	}
	removed := 0
	for _, name := range names {
		if keep[name] {
			continue
		}
		if err := d.fs.Remove(filepath.Join(d.dir, name)); err != nil {
			return fmt.Errorf("ingest: gc %s: %w", name, err)
		}
		removed++
	}
	if removed > 0 {
		if err := d.fs.SyncDir(d.dir); err != nil {
			return err
		}
		d.m.OrphansRemoved.Add(int64(removed))
	}
	return nil
}

// writeFileAtomic writes content through fn into tmp, fsyncs it,
// renames it to final, and fsyncs the directory.
func writeFileAtomic(fsys FS, tmp, final string, fn func(File) error) error {
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := fn(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		return err
	}
	return fsys.SyncDir(dirOf(final))
}

// Name returns the dataset name (the directory base name), the prefix
// of every partition table ID.
func (d *Dataset) Name() string { return d.name }

// Schema returns the fixed dataset schema.
func (d *Dataset) Schema() *table.Schema { return d.schema }

// Generation counts durable mutations of the live set; it starts at
// the recovered seal count and increments per seal.
func (d *Dataset) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// OpenRows returns the rows buffered in the open segment (not durable).
func (d *Dataset) OpenRows() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.segRows
}

// Partitions returns the live sealed partitions in seal order.
func (d *Dataset) Partitions() []Partition {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.partitionsLocked()
}

func (d *Dataset) partitionsLocked() []Partition {
	out := make([]Partition, len(d.seals))
	for i, rec := range d.seals {
		out[i] = Partition{Seq: rec.Seq, Name: rec.Name, Rows: rec.Rows}
	}
	return out
}

// partID is the stable table ID of a sealed partition.
func (d *Dataset) partID(name string) string {
	return d.name + "/" + strings.TrimSuffix(name, ".hvc")
}

// fileLocked returns the open handle of live seal i, opening it on
// first use; it stays open for the dataset's life, so the replay after a
// seal opens one new file and every source shares the column objects of
// the others. Callers hold d.mu (or own d, as recovery does).
func (d *Dataset) fileLocked(i int) (*colstore.File, error) {
	if f := d.files[i]; f != nil {
		return f, nil
	}
	rec := d.seals[i]
	f, err := d.fs.OpenHVC(filepath.Join(d.dir, rec.Name))
	if err != nil {
		return nil, err
	}
	if f.Rows() != rec.Rows {
		f.Close()
		return nil, fmt.Errorf("ingest: %s has %d rows, manifest says %d", rec.Name, f.Rows(), rec.Rows)
	}
	d.files[i] = f
	return f, nil
}

// sourceLocked serves live seals [lo, hi) through the dataset's pool,
// one whole-file partition per seal under its stable ID.
func (d *Dataset) sourceLocked(lo, hi int) (*storage.PooledSource, error) {
	files := make([]*colstore.File, 0, hi-lo)
	ids := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		f, err := d.fileLocked(i)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		ids = append(ids, d.partID(d.seals[i].Name))
	}
	return storage.NewFileSource(d.pool, files, ids), nil
}

// source serves every live partition, in seal order: the leaf source a
// query over the dataset scans.
func (d *Dataset) source() (*storage.PooledSource, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sourceLocked(0, len(d.seals))
}

// AppendRows buffers rows into the open segment, sealing automatically
// when the segment reaches the configured threshold. Buffered rows are
// volatile until sealed.
func (d *Dataset) AppendRows(ctx context.Context, rows []table.Row) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != d.schema.NumColumns() {
			return fmt.Errorf("ingest: row width %d != schema width %d", len(row), d.schema.NumColumns())
		}
		d.seg.AppendRow(row)
	}
	d.segRows += len(rows)
	d.m.Appends.Inc()
	d.m.AppendedRows.Add(int64(len(rows)))
	d.m.OpenSegmentRows.Add(int64(len(rows)))
	return d.maybeAutoSealLocked(ctx)
}

func (d *Dataset) usableLocked() error {
	if d.closed {
		return fmt.Errorf("ingest: dataset %s is closed", d.name)
	}
	return d.failed
}

func (d *Dataset) maybeAutoSealLocked(ctx context.Context) error {
	if max := d.cfg.segmentRows(); max > 0 && d.segRows >= max {
		_, err := d.sealLocked(ctx)
		return err
	}
	return nil
}

// Seal makes the open segment durable as one immutable partition,
// returning its descriptor — or (nil, nil) when nothing is buffered.
func (d *Dataset) Seal(ctx context.Context) (*Partition, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.usableLocked(); err != nil {
		return nil, err
	}
	return d.sealLocked(ctx)
}

func (d *Dataset) sealLocked(ctx context.Context) (*Partition, error) {
	if d.segRows == 0 {
		return nil, nil
	}
	start := time.Now()
	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan("ingest.seal")

	seq := uint64(len(d.seals)) + 1
	name := partName(seq)
	t := d.seg.Freeze(d.partID(name))
	final := filepath.Join(d.dir, name)
	if err := writeFileAtomic(d.fs, final+tmpSuffix, final, func(f File) error {
		return colstore.WriteHVC2To(f, t)
	}); err != nil {
		// The rows stay buffered (Freeze consumed the builder, so rebuild
		// it from the frozen table); any file left behind is unreferenced,
		// hence invisible and swept by the next recovery.
		d.seg = rebuildSegment(d.schema, t)
		sp.EndNote("error")
		return nil, fmt.Errorf("ingest: sealing %s: %w", name, err)
	}
	rec := sealRecord{Seq: seq, Rows: t.NumRows(), Name: name}
	if err := d.commitRecordLocked(rec); err != nil {
		// The manifest handle is in an unknown state (a torn record may
		// be on disk): fail the dataset; reopening runs recovery, which
		// truncates the tear and sweeps the orphaned partition file.
		d.failed = fmt.Errorf("ingest: manifest append for %s failed: %w", name, err)
		sp.EndNote("error")
		return nil, d.failed
	}
	d.seals = append(d.seals, rec)
	d.files = append(d.files, nil)
	d.gen++
	d.m.Seals.Inc()
	d.m.SealedRows.Add(int64(rec.Rows))
	d.m.LivePartitions.Add(1)
	d.m.OpenSegmentRows.Add(int64(-d.segRows))
	d.m.SealLatency.ObserveSince(start)
	d.seg = table.NewBuilder(d.schema, 0)
	d.segRows = 0

	p := Partition{Seq: rec.Seq, Name: rec.Name, Rows: rec.Rows}
	d.updateStandingLocked(ctx, len(d.seals)-1)
	sp.EndNote(fmt.Sprintf("%s rows=%d", name, rec.Rows))
	if d.cfg.OnSeal != nil {
		d.cfg.OnSeal(p)
	}
	return &p, nil
}

// rebuildSegment reconstitutes an open-segment builder from a frozen
// table: Freeze consumes the builder, so a seal that fails after Freeze
// rebuilds the buffer to keep the rows appendable.
func rebuildSegment(schema *table.Schema, t *table.Table) *table.Builder {
	b := table.NewBuilder(schema, t.NumRows())
	t.Members().Iterate(func(i int) bool {
		b.AppendRow(t.GetRow(i))
		return true
	})
	return b
}

// commitRecordLocked appends one framed record to the manifest and
// makes it durable — the commit point of a seal.
func (d *Dataset) commitRecordLocked(rec sealRecord) error {
	if _, err := d.manifest.Write(frameRecord(encodeSealRecord(rec))); err != nil {
		return err
	}
	return d.manifest.Sync()
}

// Close seals any buffered rows (graceful shutdown keeps them) and
// releases the manifest handle. A dataset in the failed state closes
// without sealing. The sealed files stay open: tables that queries
// still hold alias their columns.
func (d *Dataset) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	var err error
	if d.failed == nil {
		_, err = d.sealLocked(context.Background())
	}
	d.closed = true
	if d.manifest != nil {
		if cerr := d.manifest.Close(); err == nil {
			err = cerr
		}
	}
	d.m.LivePartitions.Add(int64(-len(d.seals)))
	d.m.OpenSegmentRows.Add(int64(-d.segRows))
	return err
}
