// Package engine implements Hillview's distributed execution engine
// (paper §5): datasets partitioned into micropartitions, execution trees
// that run vizketch summarize functions on leaves and fold results with
// merge toward the root, progressive partial results with a bounded
// aggregation window, cancellation, a computation cache, and soft-state
// memory management with redo-log replay for fault tolerance.
//
// The two dataset node kinds mirror Figure 1 of the paper:
//
//   - LocalDataSet — a leaf group: micropartitions on this machine,
//     summarized in parallel by a thread pool, one micropartition per
//     scan.
//   - An aggregation node over partition ranges, each served by
//     interchangeable replicas (SketchReplicated; package cluster backs
//     the replicas with worker connections), merging their streams of
//     partial results.
//
// Both present the IDataSet contract to the root.
package engine

import (
	"context"
	"time"

	"repro/internal/sketch"
)

// Partial is one progressive update: the best merged summary so far and
// how many leaves contributed to it (paper §5.3: "the root receives
// partial results and sends them to the client UI, before it gets the
// final results"; the Done/Total ratio drives the progress bar).
type Partial struct {
	Result sketch.Result
	Done   int
	Total  int
}

// PartialFunc receives progressive updates. Implementations must be
// fast; the engine calls them inline on the aggregation path.
type PartialFunc func(Partial)

// IDataSet is a node of the execution tree: a (possibly distributed)
// immutable dataset that can run sketches and derive new datasets.
// It corresponds to the Partitioned Data Set of the paper (§5.7), with
// all references soft: a dataset may vanish at any time, in which case
// operations return ErrMissingDataset and the root replays the redo log.
type IDataSet interface {
	// NumLeaves returns the number of leaf partitions under this node.
	NumLeaves() int
	// Sketch runs sk over every partition, streaming monotone partial
	// results to onPartial (which may be nil) and returning the final
	// merged summary. It honors ctx cancellation between micropartitions
	// (paper §5.3: enqueued work is dropped; work on a started
	// micropartition is not interrupted).
	Sketch(ctx context.Context, sk sketch.Sketch, onPartial PartialFunc) (sketch.Result, error)
	// Map derives a new dataset by applying op to every partition.
	Map(op MapOp, newID string) (IDataSet, error)
}

// DefaultAggregationWindow is the partial-result batching interval
// (paper §5.3: "aggregation nodes wait for 0.1 seconds and aggregate all
// results that arrive within this interval").
const DefaultAggregationWindow = 100 * time.Millisecond

// Config tunes the engine. The zero value means: parallelism =
// GOMAXPROCS, aggregation window = DefaultAggregationWindow. Results are
// a function of (partition list, sketch) alone: neither field changes a
// result's bits, only how fast it arrives.
type Config struct {
	// Parallelism bounds the leaf thread pool per LocalDataSet
	// (0 = GOMAXPROCS).
	Parallelism int
	// AggregationWindow throttles partial emission; negative disables
	// partials entirely, 0 means the default.
	AggregationWindow time.Duration
}

func (c Config) window() time.Duration {
	if c.AggregationWindow == 0 {
		return DefaultAggregationWindow
	}
	return c.AggregationWindow
}
