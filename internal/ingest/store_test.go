package ingest

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/table"
)

// TestStoreOpenAllFreshRoot pins the first-boot path: OpenAll against a
// root directory that does not exist yet must create it and report no
// datasets, so a server started with an empty -ingest-dir comes up
// writable instead of failing.
func TestStoreOpenAllFreshRoot(t *testing.T) {
	root := filepath.Join(t.TempDir(), "not", "yet", "created")
	st := NewStore(root, StoreConfig{})
	names, err := st.OpenAll()
	if err != nil {
		t.Fatalf("OpenAll on fresh root: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("fresh root reported datasets: %v", names)
	}
	if fi, err := os.Stat(root); err != nil || !fi.IsDir() {
		t.Fatalf("OpenAll did not create the root: %v", err)
	}

	// The store is immediately usable: create, append, seal, rediscover.
	schema := &table.Schema{Columns: []table.ColumnDesc{{Name: "v", Kind: table.KindInt}}}
	d, err := st.Create("events", schema)
	if err != nil {
		t.Fatal(err)
	}
	b := table.NewBuilder(schema, 1)
	b.AppendRow(table.Row{table.IntValue(1)})
	if err := d.Append(context.Background(), b.Freeze("batch")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(root, StoreConfig{})
	names, err = st2.OpenAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "events" {
		t.Fatalf("reopened store found %v, want [events]", names)
	}
}
