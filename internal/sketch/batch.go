package sketch

import (
	"sync"

	"repro/internal/table"
)

// This file holds the vectorized leaf-scan drivers shared by the hot
// sketches. A scan is decomposed into batches of at most kernelBatch
// rows; each batch reaches the kernel in one of three forms, per the
// membership batch-iteration contract (see table.Membership):
//
//   - span: dense memberships — full membership and physical row
//     ranges — yield contiguous spans (start, end). The kernel reads
//     column storage sequentially and no row index is materialized.
//   - words: a bitmap membership yields its member words
//     (table.IterateWords), kernelBatch/64 words per batch, to kernels
//     with a word form (scanWordBatches). The kernel counts a word's
//     missing members by popcount and walks its present members by
//     trailing zeros, or reads the word's 64 rows as a span when all
//     are present; no row index is stored.
//   - rows: sparse memberships, wrappers, and bitmaps under kernels
//     without a word form take the gather path: FillBatch bulk-decodes
//     member rows into a reused buffer and the kernel gathers column
//     values through it.
//
// Every form visits exactly the rows Iterate visits, in the same order,
// so batch results are identical to the row-at-a-time reference path.
// Sampled scans batch the deterministic Sample sequence as rows, which
// keeps randomized sketches replayable (paper §5.8).

// kernelBatch is the number of rows handed to a kernel per call: large
// enough to amortize dispatch, small enough that a batch of bucket codes
// (16 KiB) stays cache-resident.
const kernelBatch = 4096

// rowBuffers recycles the kernelBatch-row buffers that the scan drivers
// gather row indexes into and the kernels write slots into, so a
// partition scan allocates none of its 16 KiB batches.
var rowBuffers = sync.Pool{New: func() any { return new([kernelBatch]int32) }}

func getRowBuffer() *[kernelBatch]int32 { return rowBuffers.Get().(*[kernelBatch]int32) }

// denseSpans reports whether m should be scanned via the span path.
// Full memberships and row ranges always are; a bitmap or sparse
// membership uses the gather path (its spans are typically short).
// A cancellation wrapper (table.Table.WithCancel) is dispatched on the
// membership it wraps, so probed scans keep the representation's path.
func denseSpans(m table.Membership) bool {
	if b, ok := m.(interface{ Base() table.Membership }); ok {
		m = b.Base()
	}
	if _, ok := m.(table.RangeMembership); ok {
		return true
	}
	return m.Size() == m.Max()
}

// scanBatches feeds every member row of m to the kernel in batches:
// spanf for contiguous spans, rowsf for gathered row lists. The rows
// slice passed to rowsf is reused between calls.
func scanBatches(m table.Membership, spanf func(start, end int), rowsf func(rows []int32)) {
	scanWordBatches(m, spanf, nil, rowsf)
}

// scanWordBatches is scanBatches for kernels with a word form: a bitmap
// membership reaches wordsf as runs of at most kernelBatch/64 member
// words, row base+64k+j being a member when bit j of words[k] is set
// (base is a multiple of 64). A nil wordsf gathers bitmaps too. Sparse
// lists keep the gather path: a list holds under 1/32 of its rows, and
// spreading one into words a batch at a time read 0.16-0.45× the gather
// on the range kernel and 0.32-0.69× on the exact histogram (1M-row
// tables, 1 % and 1.2 % lists; see ROADMAP, "Scan geometry").
func scanWordBatches(m table.Membership, spanf func(start, end int), wordsf func(base int, words []uint64), rowsf func(rows []int32)) {
	if denseSpans(m) {
		m.IterateSpans(func(start, end int) bool {
			for a := start; a < end; a += kernelBatch {
				b := a + kernelBatch
				if b > end {
					b = end
				}
				spanf(a, b)
			}
			return true
		})
		return
	}
	const batchWords = kernelBatch / 64
	if wordsf != nil && table.IterateWords(m, func(wi int, words []uint64) bool {
		for k := 0; k < len(words); k += batchWords {
			wordsf((wi+k)<<6, words[k:min(k+batchWords, len(words))])
		}
		return true
	}) {
		return
	}
	rb := getRowBuffer()
	defer rowBuffers.Put(rb)
	buf := rb[:]
	for from := 0; ; {
		n, next := m.FillBatch(buf, from)
		if n == 0 {
			return
		}
		rowsf(buf[:n])
		from = next
	}
}

// sampleBatches collects the deterministic row sample of m into batches
// and passes each to rowsf. It visits exactly the rows Membership.Sample
// visits, in order; the rows slice is reused between calls.
func sampleBatches(m table.Membership, rate float64, seed uint64, rowsf func(rows []int32)) {
	rb := getRowBuffer()
	defer rowBuffers.Put(rb)
	buf := rb[:0]
	m.Sample(rate, seed, func(i int) bool {
		buf = append(buf, int32(i))
		if len(buf) == kernelBatch {
			rowsf(buf)
			buf = buf[:0]
		}
		return true
	})
	if len(buf) > 0 {
		rowsf(buf)
	}
}

// bucketTally accumulates a batch of BatchIndexer slots into a tally
// array laid out as [missing, outOfRange, bucket 0, bucket 1, ...], so
// the inner loop is a branch-free gather-increment.
func bucketTally(tallies []int64, slots []int32) {
	for _, s := range slots {
		tallies[s]++
	}
}

// histogramScan runs the full (exact) scan of a histogram over members,
// filling h from bi. Kernels that implement bucketCounter tally in one
// fused pass, bitmap members a word at a time; others index into a slot
// buffer first.
func histogramScan(m table.Membership, bi BatchIndexer, h *Histogram) {
	tallies := make([]int64, len(h.Counts)+2)
	if bc, ok := bi.(bucketCounter); ok {
		scanWordBatches(m,
			func(a, b int) { bc.CountSpan(a, b, tallies) },
			func(base int, words []uint64) { bc.CountWords(base, words, tallies) },
			func(rows []int32) { bc.CountRows(rows, tallies) })
	} else {
		rb := getRowBuffer()
		defer rowBuffers.Put(rb)
		out := rb[:]
		scanBatches(m,
			func(a, b int) {
				bi.IndexSpan(a, b, out[:b-a])
				bucketTally(tallies, out[:b-a])
			},
			func(rows []int32) {
				bi.IndexRows(rows, out[:len(rows)])
				bucketTally(tallies, out[:len(rows)])
			})
	}
	addTallies(h, tallies)
}

// addTallies adds a tally array laid out as bucketTally's to h. Every
// scanned row is in exactly one tally, so their sum is the row count.
func addTallies(h *Histogram, tallies []int64) {
	for _, c := range tallies {
		h.SampledRows += c
	}
	h.Missing += tallies[0]
	h.OutOfRange += tallies[1]
	for i := range h.Counts {
		h.Counts[i] += tallies[i+2]
	}
}

// histogramSampleScan runs the sampled scan of a histogram over members,
// at a rate in (0, 1).
func histogramSampleScan(m table.Membership, bi BatchIndexer, h *Histogram, rate float64, seed uint64) {
	tallies := make([]int64, len(h.Counts)+2)
	if bc, ok := bi.(bucketCounter); ok {
		sampleBatches(m, rate, seed, func(rows []int32) { bc.CountRows(rows, tallies) })
	} else {
		rb := getRowBuffer()
		defer rowBuffers.Put(rb)
		out := rb[:]
		sampleBatches(m, rate, seed, func(rows []int32) {
			bi.IndexRows(rows, out[:len(rows)])
			bucketTally(tallies, out[:len(rows)])
		})
	}
	addTallies(h, tallies)
}

// valueBatcher materializes column values for batches of rows without
// per-row interface dispatch, for sketches that consume table.Value
// (heavy hitters). Dictionary columns build each distinct Value once.
type valueBatcher struct {
	span func(start, end int, out []table.Value)
	rows func(rows []int32, out []table.Value)
}

// newValueBatcher returns the value-materialization kernel for col.
func newValueBatcher(col table.Column) valueBatcher {
	switch c := col.(type) {
	case *table.IntColumn:
		kind, vals, miss := c.Kind(), c.Ints(), c.MissingMask()
		missingV := table.MissingValue(kind)
		return valueBatcher{
			span: func(start, end int, out []table.Value) {
				for k, v := range vals[start:end] {
					if miss != nil && miss.Get(start+k) {
						out[k] = missingV
					} else {
						out[k] = table.Value{Kind: kind, I: v}
					}
				}
			},
			rows: func(rows []int32, out []table.Value) {
				for k, r := range rows {
					if miss != nil && miss.Get(int(r)) {
						out[k] = missingV
					} else {
						out[k] = table.Value{Kind: kind, I: vals[r]}
					}
				}
			},
		}
	case *table.DoubleColumn:
		vals, miss := c.Doubles(), c.MissingMask()
		missingV := table.MissingValue(table.KindDouble)
		return valueBatcher{
			span: func(start, end int, out []table.Value) {
				for k, v := range vals[start:end] {
					if miss != nil && miss.Get(start+k) {
						out[k] = missingV
					} else {
						out[k] = table.Value{Kind: table.KindDouble, D: v}
					}
				}
			},
			rows: func(rows []int32, out []table.Value) {
				for k, r := range rows {
					if miss != nil && miss.Get(int(r)) {
						out[k] = missingV
					} else {
						out[k] = table.Value{Kind: table.KindDouble, D: vals[r]}
					}
				}
			},
		}
	case *table.StringColumn:
		codes, miss := c.Codes(), c.MissingMask()
		dictVals := make([]table.Value, c.DictSize())
		for i, s := range c.Dict() {
			dictVals[i] = table.Value{Kind: table.KindString, S: s}
		}
		missingV := table.MissingValue(table.KindString)
		return valueBatcher{
			span: func(start, end int, out []table.Value) {
				for k, code := range codes[start:end] {
					if miss != nil && miss.Get(start+k) {
						out[k] = missingV
					} else {
						out[k] = dictVals[code]
					}
				}
			},
			rows: func(rows []int32, out []table.Value) {
				for k, r := range rows {
					if miss != nil && miss.Get(int(r)) {
						out[k] = missingV
					} else {
						out[k] = dictVals[codes[r]]
					}
				}
			},
		}
	default:
		return valueBatcher{
			span: func(start, end int, out []table.Value) {
				for k := 0; k < end-start; k++ {
					out[k] = col.Value(start + k)
				}
			},
			rows: func(rows []int32, out []table.Value) {
				for k, r := range rows {
					out[k] = col.Value(int(r))
				}
			},
		}
	}
}

// valueBuffers recycles the kernelBatch-value batches of scanValues and
// sampleValues (40 B a value, 160 KiB a batch), as rowBuffers does the
// row batches. A batch is cleared before it goes back, so a pooled batch
// pins no strings.
var valueBuffers = sync.Pool{New: func() any { return new([kernelBatch]table.Value) }}

// withValueBuffer runs scan with a pooled value batch, then clears the
// longest prefix scan reports it used and puts the batch back.
func withValueBuffer(scan func(out []table.Value) (used int)) {
	buf := valueBuffers.Get().(*[kernelBatch]table.Value)
	clear(buf[:scan(buf[:])])
	valueBuffers.Put(buf)
}

// scanValues feeds the values of every member row to visit in batches,
// preserving Iterate order (the visit slice is reused between calls).
func scanValues(m table.Membership, col table.Column, visit func(vals []table.Value)) {
	vb := newValueBatcher(col)
	withValueBuffer(func(out []table.Value) (used int) {
		scanBatches(m,
			func(a, b int) {
				vb.span(a, b, out[:b-a])
				visit(out[:b-a])
				used = max(used, b-a)
			},
			func(rows []int32) {
				vb.rows(rows, out[:len(rows)])
				visit(out[:len(rows)])
				used = max(used, len(rows))
			})
		return used
	})
}

// sampleValues feeds the values of the deterministic row sample to visit
// in batches, preserving Sample order.
func sampleValues(m table.Membership, col table.Column, rate float64, seed uint64, visit func(vals []table.Value)) {
	vb := newValueBatcher(col)
	withValueBuffer(func(out []table.Value) (used int) {
		sampleBatches(m, rate, seed, func(rows []int32) {
			vb.rows(rows, out[:len(rows)])
			visit(out[:len(rows)])
			used = max(used, len(rows))
		})
		return used
	})
}
