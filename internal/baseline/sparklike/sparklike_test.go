package sparklike

import (
	"encoding/gob"
	"testing"

	"repro/internal/flights"
	"repro/internal/sketch"
	"repro/internal/table"
)

// TestRowSerializationOverhead collects a Hillview summary through the
// baseline's gob serializer, so the summary type must be registered
// here: package sketch has no gob registrations.
func init() { gob.Register(&sketch.Histogram{}) }

func TestMapPartitionsHistogram(t *testing.T) {
	eng := New(4)
	parts := flights.GenPartitions("sl", 20000, 4, 1, flights.CoreColumns)
	rdd := eng.Parallelize(parts)
	if rdd.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", rdd.NumPartitions())
	}
	// Exact histogram per partition, merged at the driver.
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 20)
	results, err := rdd.MapPartitions(func(p *table.Table) (any, error) {
		counts := make([]int64, 20)
		col := p.MustColumn("Distance")
		p.Members().Iterate(func(row int) bool {
			if b := spec.IndexValue(col.Double(row)); b >= 0 {
				counts[b]++
			}
			return true
		})
		return counts, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]int64, 20)
	for _, r := range results {
		for i, c := range r.([]int64) {
			merged[i] += c
		}
	}
	var total int64
	for _, c := range merged {
		total += c
	}
	if total != 20000 {
		t.Errorf("histogram total = %d", total)
	}
	if eng.TasksRun() != 4 {
		t.Errorf("tasks = %d", eng.TasksRun())
	}
	if eng.BytesCollected() == 0 {
		t.Error("no bytes accounted for collect")
	}
}

func TestFilterAndCollect(t *testing.T) {
	eng := New(0)
	parts := flights.GenPartitions("slc", 5000, 2, 2, flights.CoreColumns)
	rdd := eng.Parallelize(parts)
	ua := rdd.Filter(func(p *table.Table, row int) bool {
		return p.MustColumn("Carrier").Str(row) == "UA"
	})
	rows, err := ua.Collect([]string{"Carrier", "Distance"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no UA rows")
	}
	for _, r := range rows {
		if r["Carrier"] != "UA" {
			t.Fatalf("filter leak: %v", r)
		}
		if _, ok := r["Distance"].(float64); !ok {
			t.Fatalf("distance type: %T", r["Distance"])
		}
	}
	if _, err := rdd.Collect([]string{"NoSuch"}); err == nil {
		t.Error("unknown column should fail")
	}
}

// TestRowSerializationOverhead pins the architectural claim the
// baseline exists to demonstrate: collecting rows as self-describing
// Row maps costs an order of magnitude more driver bytes than shipping
// a packed summary of the same information.
func TestRowSerializationOverhead(t *testing.T) {
	eng := New(0)
	parts := flights.GenPartitions("so", 20000, 4, 3, flights.CoreColumns)
	rdd := eng.Parallelize(parts)

	// Hillview-style: one histogram summary per partition.
	spec := sketch.NumericBuckets(table.KindDouble, 0, 3000, 25)
	sk := &sketch.HistogramSketch{Col: "Distance", Buckets: spec}
	if _, err := rdd.MapPartitions(func(p *table.Table) (any, error) {
		return sk.Summarize(p)
	}); err != nil {
		t.Fatal(err)
	}
	summaryBytes := eng.BytesCollected()

	eng.ResetCounters()
	if _, err := rdd.Collect([]string{"Distance"}); err != nil {
		t.Fatal(err)
	}
	rowBytes := eng.BytesCollected()

	if rowBytes < 10*summaryBytes {
		t.Errorf("row collect (%d B) should dwarf summary collect (%d B)", rowBytes, summaryBytes)
	}
}
