package sketch

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// MultiSketch is the scan-batching composite: it wraps N member
// sketches so one leaf pass over a table feeds all N. The engine sees a
// single sketch whose Summarize runs every member's Summarize over the
// same partition, whose declared columns are the union of the members'
// columns (acquired once per partition), and whose summaries are
// member-wise vectors demultiplexed by the serving layer.
//
// Bit-identity contract: the engine's scan geometry (one task per
// partition, under the partition's ID, and the merge-tree shape) does
// not depend on the sketch being run — so each member's slot of the
// batched result is bit-for-bit the result of running that member alone
// over the same partitions. Per-partition sampling seeds derive from the
// partition table ID (PartitionSeed), which batching does not change, so
// sampled members stay deterministic too.
//
// MultiSketch is deliberately not Cacheable: the member set of a batch
// is an accident of arrival timing, so a combined cache entry would
// almost never be hit again — members are deduplicated individually by
// the serving layer, and cached individually by the engine root once the
// shared pass finishes (engine.Root.RunSketch).
type MultiSketch struct {
	Sketches []Sketch
}

// MultiResult is the member-wise result vector of a MultiSketch;
// Members is index-aligned with MultiSketch.Sketches.
type MultiResult struct {
	Members []Result
}

// NewMultiSketch validates and builds a batch over members: at least
// one member, none nil, and no nesting.
func NewMultiSketch(members ...Sketch) (*MultiSketch, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("sketch: MultiSketch needs at least one member")
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("sketch: MultiSketch member %d is nil", i)
		}
		if _, ok := m.(*MultiSketch); ok {
			return nil, fmt.Errorf("sketch: MultiSketch member %d is itself a MultiSketch", i)
		}
	}
	return &MultiSketch{Sketches: members}, nil
}

// MembersOf returns the sketches a query is made of — a MultiSketch's
// members, or sk alone — and whether it was a MultiSketch: the layers
// that cache and deduplicate do so member by member.
func MembersOf(sk Sketch) (members []Sketch, grouped bool) {
	if multi, ok := sk.(*MultiSketch); ok {
		return multi.Sketches, true
	}
	return []Sketch{sk}, false
}

// Name implements Sketch.
func (s *MultiSketch) Name() string {
	names := make([]string, len(s.Sketches))
	for i, m := range s.Sketches {
		names[i] = m.Name()
	}
	return "multi[" + strings.Join(names, "; ") + "]"
}

// Zero implements Sketch: the member-wise vector of zeros.
func (s *MultiSketch) Zero() Result {
	members := make([]Result, len(s.Sketches))
	for i, m := range s.Sketches {
		members[i] = m.Zero()
	}
	return &MultiResult{Members: members}
}

// Summarize implements Sketch: each member summarizes the same
// partition, so the batched leaf scan pays one column acquire per
// partition for N answers.
func (s *MultiSketch) Summarize(t *table.Table) (Result, error) {
	members := make([]Result, len(s.Sketches))
	for i, m := range s.Sketches {
		r, err := m.Summarize(t)
		if err != nil {
			return nil, fmt.Errorf("member %d (%s): %w", i, m.Name(), err)
		}
		members[i] = r
	}
	return &MultiResult{Members: members}, nil
}

// Merge implements Sketch member-wise.
func (s *MultiSketch) Merge(a, b Result) (Result, error) {
	ma, mb, err := s.operands(a, b)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(s.Sketches))
	for i, m := range s.Sketches {
		r, err := m.Merge(ma.Members[i], mb.Members[i])
		if err != nil {
			return nil, fmt.Errorf("member %d (%s): %w", i, m.Name(), err)
		}
		out[i] = r
	}
	return &MultiResult{Members: out}, nil
}

// MergeInto implements InPlaceMerger member-wise: a member that is an
// InPlaceMerger merges in place, any other merges with Merge, and each
// result replaces dst's member. A heat map batched with other charts
// thus keeps its in-place fold.
func (s *MultiSketch) MergeInto(dst, src Result) (Result, error) {
	md, ms, err := s.operands(dst, src)
	if err != nil {
		return nil, err
	}
	for i, m := range s.Sketches {
		var r Result
		if in, ok := m.(InPlaceMerger); ok {
			r, err = in.MergeInto(md.Members[i], ms.Members[i])
		} else {
			r, err = m.Merge(md.Members[i], ms.Members[i])
		}
		if err != nil {
			return nil, fmt.Errorf("member %d (%s): %w", i, m.Name(), err)
		}
		md.Members[i] = r
	}
	return md, nil
}

func (s *MultiSketch) operands(a, b Result) (*MultiResult, *MultiResult, error) {
	ma, ok := a.(*MultiResult)
	if !ok {
		return nil, nil, fmt.Errorf("sketch: MultiSketch.Merge: %T is not *MultiResult", a)
	}
	mb, ok := b.(*MultiResult)
	if !ok {
		return nil, nil, fmt.Errorf("sketch: MultiSketch.Merge: %T is not *MultiResult", b)
	}
	if len(ma.Members) != len(s.Sketches) || len(mb.Members) != len(s.Sketches) {
		return nil, nil, fmt.Errorf("sketch: MultiSketch.Merge: member counts %d/%d, want %d",
			len(ma.Members), len(mb.Members), len(s.Sketches))
	}
	return ma, mb, nil
}

// Columns implements ColumnUser: the union of the members' declared
// columns, or nil — "provide every column" — when any member does not
// declare its columns. Duplicates are fine; SketchColumns deduplicates.
func (s *MultiSketch) Columns() []string {
	var union []string
	for _, m := range s.Sketches {
		cols := SketchColumns(m)
		if cols == nil {
			return nil
		}
		union = append(union, cols...)
	}
	if union == nil {
		union = []string{}
	}
	return union
}
