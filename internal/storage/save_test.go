package storage

import (
	"reflect"
	"testing"

	"repro/internal/sketch"
)

// TestSaveCodecRoundTrip: the save vizketch and its summary cross the
// wire exactly, nil and empty slices included.
func TestSaveCodecRoundTrip(t *testing.T) {
	sk := &SaveSketch{Dir: "/tmp/out dir"}
	b, ok := sketch.AppendSketchWire(nil, sk)
	if !ok {
		t.Fatal("SaveSketch has no wire codec")
	}
	got, rest, err := sketch.DecodeSketchWire(b)
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, sk) {
		t.Fatalf("sketch round trip = %+v, %d trailing, %v", got, len(rest), err)
	}
	for _, r := range []*SaveResult{
		{},
		{Rows: 12, Files: []string{"a.csv", "b.csv"}},
		{Files: []string{}, Errors: []string{"disk full"}},
	} {
		b, ok := sketch.AppendResultWire(nil, r)
		if !ok {
			t.Fatal("SaveResult has no wire codec")
		}
		got, rest, err := sketch.DecodeResultWire(b)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, r) {
			t.Errorf("result round trip of %+v = %+v, %d trailing, %v", r, got, len(rest), err)
		}
	}
}
