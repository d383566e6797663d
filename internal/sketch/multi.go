package sketch

import (
	"fmt"
	"strings"

	"repro/internal/table"
	"repro/internal/wire"
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
	ma, ok := a.(*MultiResult)
	if !ok {
		return nil, fmt.Errorf("sketch: MultiSketch.Merge: %T is not *MultiResult", a)
	}
	mb, ok := b.(*MultiResult)
	if !ok {
		return nil, fmt.Errorf("sketch: MultiSketch.Merge: %T is not *MultiResult", b)
	}
	if len(ma.Members) != len(s.Sketches) || len(mb.Members) != len(s.Sketches) {
		return nil, fmt.Errorf("sketch: MultiSketch.Merge: member counts %d/%d, want %d",
			len(ma.Members), len(mb.Members), len(s.Sketches))
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

// --- wire codec ----------------------------------------------------------
//
// Members nest inside the MultiSketch frame: each slot is a bool, always
// true, followed by the member's registered tag+body. A false slot is
// corrupt; AppendSketchWire and AppendResultWire refuse a multi with a
// codec-less member before anything is written. Nested multis are
// rejected at decode, which both mirrors the NewMultiSketch contract and
// bounds decoder recursion on crafted frames.

func (s *MultiSketch) AppendWire(b []byte) []byte {
	b = wire.AppendLen(b, len(s.Sketches), s.Sketches == nil)
	for _, m := range s.Sketches {
		b, _ = AppendSketchWire(wire.AppendBool(b, true), m)
	}
	return b
}

func (s *MultiSketch) DecodeWire(b []byte) ([]byte, error) {
	n, isNil, rest, err := wire.ConsumeLen(b, 2)
	if err != nil {
		return b, err
	}
	if isNil {
		s.Sketches = nil
		return rest, nil
	}
	members := make([]Sketch, 0, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		if rest, err = consumeMemberSlot(rest, i); err != nil {
			return b, err
		}
		if len(rest) > 0 && rest[0] == tagMultiSketch {
			return b, wire.Corruptf("nested MultiSketch")
		}
		var m Sketch
		if m, rest, err = DecodeSketchWire(rest); err != nil {
			return b, err
		}
		members = append(members, m)
	}
	s.Sketches = members
	return rest, nil
}

func (r *MultiResult) AppendWire(b []byte) []byte {
	b = wire.AppendLen(b, len(r.Members), r.Members == nil)
	for _, m := range r.Members {
		b, _ = AppendResultWire(wire.AppendBool(b, true), m)
	}
	return b
}

func (r *MultiResult) DecodeWire(b []byte) ([]byte, error) {
	n, isNil, rest, err := wire.ConsumeLen(b, 2)
	if err != nil {
		return b, err
	}
	if isNil {
		r.Members = nil
		return rest, nil
	}
	members := make([]Result, 0, wire.PreallocLen(n))
	for i := 0; i < n; i++ {
		if rest, err = consumeMemberSlot(rest, i); err != nil {
			return b, err
		}
		if len(rest) > 0 && rest[0] == tagMultiResult {
			return b, wire.Corruptf("nested MultiResult")
		}
		var m Result
		if m, rest, err = DecodeResultWire(rest); err != nil {
			return b, err
		}
		members = append(members, m)
	}
	r.Members = members
	return rest, nil
}

// consumeMemberSlot consumes member i's leading bool, which must be true.
func consumeMemberSlot(b []byte, i int) ([]byte, error) {
	present, rest, err := wire.ConsumeBool(b)
	if err == nil && !present {
		err = wire.Corruptf("member %d slot is not marked present", i)
	}
	return rest, err
}

func init() {
	RegisterSketchCodec(tagMultiSketch, func() WireSketch { return &MultiSketch{} })
	RegisterResultCodec(tagMultiResult, func() WireResult { return &MultiResult{} })
}
