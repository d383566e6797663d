package ingest

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashAtEveryPoint is the exhaustive crash battery in miniature:
// one scripted ingest run on a recording filesystem, then for every
// prefix of its operation sequence and every persistence policy, the
// simulated post-crash image is recovered and checked against the
// crash-safety contract:
//
//   - recovery always succeeds (or reports ErrNoDataset when the crash
//     predates a durable manifest);
//   - the recovered live set is a contiguous prefix 1..n of the seals,
//     and every seal acknowledged before the crash point survives;
//   - every recovered partition's bytes equal the original sealed bytes;
//   - after recovery the directory holds exactly MANIFEST plus the live
//     partitions (no orphans, no temp files);
//   - the recovered dataset accepts a further append+seal.
func TestCrashAtEveryPoint(t *testing.T) {
	ctx := context.Background()
	cfs := NewCrashFS()
	dir := "root/ds"

	// Script: create, then 3 append+seal rounds. ackOps[i] is the op
	// count at which seal i+1 was acknowledged; a crash at or past it
	// must preserve that seal.
	d, err := Create(dir, testSchema, Config{FS: cfs, SegmentRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	var (
		ackOps    []int
		sealBytes [][]byte
	)
	for i := 0; i < 3; i++ {
		if err := d.Append(ctx, testBatch(i*8, 8)); err != nil {
			t.Fatal(err)
		}
		p, err := d.Seal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ackOps = append(ackOps, cfs.Ops())
		data, err := cfs.ReadFile(filepath.Join(dir, p.Name))
		if err != nil {
			t.Fatal(err)
		}
		sealBytes = append(sealBytes, data)
	}
	total := cfs.Ops()

	for _, pol := range []struct {
		name   string
		policy CrashPolicy
	}{{"keepall", CrashKeepAll}, {"dropunsynced", CrashDropUnsynced}, {"torn", CrashTorn}} {
		t.Run(pol.name, func(t *testing.T) {
			for k := 0; k <= total; k++ {
				for salt := uint64(0); salt < saltsFor(pol.policy); salt++ {
					img := cfs.SimulateCrash(k, pol.policy, salt)
					if err := checkRecovery(img, dir, k, ackOps, sealBytes); err != nil {
						t.Fatalf("crash after op %d (%s), salt %d: %v", k, cfs.DescribeOp(k-1), salt, err)
					}
				}
			}
		})
	}
}

// saltsFor returns how many torn-policy variants to try per crash point.
func saltsFor(p CrashPolicy) uint64 {
	if p == CrashTorn {
		return 4
	}
	return 1
}

// checkRecovery runs recovery on one crash image and enforces the
// contract. minLive is the number of seals acknowledged before the
// crash point — all of them must survive.
func checkRecovery(img *MemFS, dir string, k int, ackOps []int, sealBytes [][]byte) error {
	minLive := 0
	for _, at := range ackOps {
		if at <= k {
			minLive++
		}
	}
	d, err := Open(dir, Config{FS: img, SegmentRows: -1})
	if err != nil {
		if minLive > 0 {
			return fmt.Errorf("recovery failed with %d acknowledged seals: %w", minLive, err)
		}
		return nil // nothing was promised yet; "no dataset" is acceptable
	}
	defer d.Close()

	parts := d.Partitions()
	if len(parts) < minLive || len(parts) > len(sealBytes) {
		return fmt.Errorf("recovered %d partitions, want between %d and %d", len(parts), minLive, len(sealBytes))
	}
	for i, p := range parts {
		if p.Seq != uint64(i+1) {
			return fmt.Errorf("live set not contiguous: partition %d has seq %d", i, p.Seq)
		}
		data, err := img.ReadFile(filepath.Join(dir, p.Name))
		if err != nil {
			return fmt.Errorf("live partition unreadable: %w", err)
		}
		if !bytes.Equal(data, sealBytes[i]) {
			return fmt.Errorf("partition %s bytes differ from the sealed original", p.Name)
		}
	}

	// No orphans: exactly MANIFEST + live partitions remain.
	names, err := img.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if name == manifestName {
			continue
		}
		live := false
		for _, p := range parts {
			if p.Name == name {
				live = true
			}
		}
		if !live {
			return fmt.Errorf("orphan %q survived recovery", name)
		}
		if strings.HasSuffix(name, tmpSuffix) {
			return fmt.Errorf("temp file %q survived recovery", name)
		}
	}

	// The recovered dataset keeps working.
	ctx := context.Background()
	if err := d.Append(ctx, testBatch(100, 3)); err != nil {
		return fmt.Errorf("append after recovery: %w", err)
	}
	p, err := d.Seal(ctx)
	if err != nil {
		return fmt.Errorf("seal after recovery: %w", err)
	}
	if p.Seq != uint64(len(parts))+1 {
		return fmt.Errorf("post-recovery seal got seq %d, want %d", p.Seq, len(parts)+1)
	}
	return nil
}

// TestCrashKeepAllPreservesEverySeal pins the strongest policy: with
// the page cache surviving (plain process kill), every completed seal —
// acknowledged or not — whose manifest record was written is recovered.
func TestCrashKeepAllPreservesEverySeal(t *testing.T) {
	ctx := context.Background()
	cfs := NewCrashFS()
	d, err := Create("r/ds", testSchema, Config{FS: cfs, SegmentRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(ctx, testBatch(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	img := cfs.SimulateCrash(cfs.Ops(), CrashKeepAll, 0)
	re, err := Open("r/ds", Config{FS: img})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Partitions()); got != 1 {
		t.Fatalf("recovered %d partitions, want 1", got)
	}
}
