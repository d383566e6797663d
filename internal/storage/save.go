package storage

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/sketch"
	"repro/internal/table"
)

// SaveResult is the summary of the save vizketch: how many rows and
// files each subtree wrote, plus any per-partition errors. The paper
// implements saving "through a special vizketch with a summarize
// function that writes a data record to the repository and returns an
// error indication, while the merge function combines error
// indications" (§5.4).
type SaveResult struct {
	Rows   int
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
	return &SaveResult{Rows: t.NumRows(), Files: []string{path}}, nil
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

func init() {
	sketch.RegisterSketch(sketch.TagSaveSketch, &SaveSketch{})
	sketch.RegisterResult(sketch.TagSaveResult, &SaveResult{})
}
