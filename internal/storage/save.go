package storage

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/wire"
)

// SaveResult is the summary of the save vizketch: how many rows and
// files each subtree wrote, plus any per-partition errors. The paper
// implements saving "through a special vizketch with a summarize
// function that writes a data record to the repository and returns an
// error indication, while the merge function combines error
// indications" (§5.4).
type SaveResult struct {
	Rows   int64
	Files  []string
	Errors []string
}

// SaveSketch writes each partition's member rows as one CSV file under
// Dir. It is a sketch like any other, so saving distributes and
// parallelizes exactly like a histogram; it lives here, beside
// WriteCSV, because every worker links this package.
type SaveSketch struct {
	Dir string
}

// Name implements sketch.Sketch.
func (s *SaveSketch) Name() string { return fmt.Sprintf("save(%s)", s.Dir) }

// Zero implements sketch.Sketch.
func (s *SaveSketch) Zero() sketch.Result { return &SaveResult{} }

// Summarize implements sketch.Sketch.
func (s *SaveSketch) Summarize(t *table.Table) (sketch.Result, error) {
	name := strings.NewReplacer("/", "_", "#", "_", ":", "_").Replace(t.ID())
	path := filepath.Join(s.Dir, name+".csv")
	if err := WriteCSV(path, t); err != nil {
		return &SaveResult{Errors: []string{err.Error()}}, nil
	}
	return &SaveResult{Rows: int64(t.NumRows()), Files: []string{path}}, nil
}

// Merge implements sketch.Sketch.
func (s *SaveSketch) Merge(a, b sketch.Result) (sketch.Result, error) {
	sa, ok1 := a.(*SaveResult)
	sb, ok2 := b.(*SaveResult)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("storage: save merge got %T and %T", a, b)
	}
	return &SaveResult{
		Rows:   sa.Rows + sb.Rows,
		Files:  append(append([]string(nil), sa.Files...), sb.Files...),
		Errors: append(append([]string(nil), sa.Errors...), sb.Errors...),
	}, nil
}

// AppendWire implements sketch.WireSketch.
func (s *SaveSketch) AppendWire(b []byte) []byte { return wire.AppendString(b, s.Dir) }

// DecodeWire implements sketch.WireSketch.
func (s *SaveSketch) DecodeWire(b []byte) ([]byte, error) {
	var err error
	s.Dir, b, err = wire.ConsumeString(b)
	return b, err
}

// AppendWire implements sketch.WireResult.
func (r *SaveResult) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, r.Rows)
	b = wire.AppendStrings(b, r.Files)
	return wire.AppendStrings(b, r.Errors)
}

// DecodeWire implements sketch.WireResult.
func (r *SaveResult) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if r.Rows, b, err = wire.ConsumeVarint(b); err != nil {
		return b, err
	}
	if r.Files, b, err = wire.ConsumeStrings(b); err != nil {
		return b, err
	}
	r.Errors, b, err = wire.ConsumeStrings(b)
	return b, err
}

func init() {
	sketch.RegisterSketchCodec(sketch.TagSaveSketch, func() sketch.WireSketch { return &SaveSketch{} })
	sketch.RegisterResultCodec(sketch.TagSaveResult, func() sketch.WireResult { return &SaveResult{} })
}
