package engine

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/expr"
	"repro/internal/table"
)

// MapOp derives one table partition from another. Implementations are
// plain serializable data: the redo log stores them, and the cluster
// layer ships them to workers. Apply must be deterministic — replaying
// an op after a failure must rebuild the identical partition (§5.8).
type MapOp interface {
	// Apply transforms one partition. newPartID is the stable identity
	// of the derived partition (deterministic in parent ID and op).
	Apply(t *table.Table, newPartID string) (*table.Table, error)
}

// DerivePartID gives the stable partition ID for partition i of a
// derived dataset.
func DerivePartID(datasetID string, i int) string {
	return datasetID + "#" + strconv.Itoa(i)
}

// FilterOp keeps rows satisfying a predicate expression (§5.6
// "Selection"). Rows where the predicate is missing are dropped.
type FilterOp struct {
	Predicate string
}

// Apply implements MapOp: the predicate is batch-compiled per partition
// (microseconds against the scan) and evaluated a vector at a time.
func (op FilterOp) Apply(t *table.Table, newPartID string) (*table.Table, error) {
	keep, err := expr.Select(op.Predicate, t)
	if err != nil {
		return nil, err
	}
	return t.WithMembership(newPartID, keep), nil
}

// DeriveOp appends a derived column (§5.6 "User-defined maps"). Apply
// evaluates the expression over the member rows a typed batch at a time
// and stores the values (expr.DeriveColumn), so every kernel reads the
// column as it reads a loaded one; the derived dataset holds it until
// it is dropped, and replaying the op recomputes it.
type DeriveOp struct {
	Col  string
	Expr string
}

// Apply implements MapOp.
func (op DeriveOp) Apply(t *table.Table, newPartID string) (*table.Table, error) {
	col, err := expr.DeriveColumn(op.Expr, t)
	if err != nil {
		return nil, err
	}
	return t.WithColumn(newPartID, op.Col, col)
}

// FilterRangeOp keeps rows whose numeric column lies in [Min, Max] —
// the zoom-into-chart operation (§5.6), expressed directly rather than
// through the expression language so bucket boundaries transfer exactly.
type FilterRangeOp struct {
	Col      string
	Min, Max float64
}

// Apply implements MapOp. The range is the predicate
// "Col >= Min && Col <= Max" handed to the expression compiler as an
// already-built tree (the bounds never pass through text), so zoom and
// expression filters share one evaluation path.
func (op FilterRangeOp) Apply(t *table.Table, newPartID string) (*table.Table, error) {
	col, err := t.Column(op.Col)
	if err != nil {
		return nil, err
	}
	if !col.Kind().Numeric() {
		return nil, fmt.Errorf("engine: range filter over %v column %q", col.Kind(), op.Col)
	}
	if math.IsNaN(op.Min) || math.IsNaN(op.Max) {
		// No value lies in a range with a NaN bound, whereas the
		// expression language orders NaN equal to everything.
		return t.WithMembership(newPartID, table.NewSparseMembership(nil, t.Members().Max())), nil
	}
	bound := func(cmp string, v float64) expr.Node {
		return &expr.BinaryNode{Op: cmp, L: &expr.ColumnNode{Name: op.Col}, R: &expr.NumberNode{F: v}}
	}
	keep, err := expr.SelectNode(&expr.BinaryNode{Op: "&&", L: bound(">=", op.Min), R: bound("<=", op.Max)}, t)
	if err != nil {
		return nil, err
	}
	return t.WithMembership(newPartID, keep), nil
}
