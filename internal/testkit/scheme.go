package testkit

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/storage"
	"repro/internal/table"
)

// The "testgen" storage scheme lets cluster workers load the harness's
// generated tables from a spec string alone:
//
//	testgen:prefix=tk7,seed=7,rows=2000,parts=4,worker=0,of=2
//
// Generation is a pure function of (prefix, seed, rows, parts), so a
// worker process reconstructs bit-identical partitions — including the
// stable partition IDs that per-partition sampling seeds derive from —
// without any data crossing the wire. worker/of select the partition
// subset (index ≡ worker mod of) so ExpandSource's {worker} placeholder
// shards one generated table across a cluster exactly like a real
// partitioned load, with partition IDs unchanged. This is what makes
// the local and distributed topologies bit-comparable: same tables,
// same IDs, same partitions — only the execution topology differs.
func init() {
	storage.RegisterScheme("testgen", func(rest, id string, _ int) ([]*table.Table, error) {
		spec := map[string]string{}
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("testgen: bad field %q in %q", kv, rest)
			}
			spec[k] = v
		}
		num := func(key string, def int) (int, error) {
			s, ok := spec[key]
			if !ok {
				return def, nil
			}
			return strconv.Atoi(s)
		}
		seed, err := strconv.ParseUint(spec["seed"], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("testgen: seed: %w", err)
		}
		rows, err := num("rows", 1000)
		if err != nil {
			return nil, err
		}
		parts, err := num("parts", 4)
		if err != nil {
			return nil, err
		}
		worker, err := num("worker", 0)
		if err != nil {
			return nil, err
		}
		of, err := num("of", 0)
		if err != nil {
			return nil, err
		}
		all, _ := table.GenPartitions(spec["prefix"], seed, rows, parts)
		if of <= 0 {
			return all, nil
		}
		var mine []*table.Table
		for i, t := range all {
			if i%of == worker%of {
				mine = append(mine, t)
			}
		}
		return mine, nil
	})
}
