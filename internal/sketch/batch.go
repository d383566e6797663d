package sketch

import (
	"sync"

	"repro/internal/table"
)

// This file holds the vectorized leaf-scan drivers shared by the hot
// sketches: one driver per scan shape — histogramScan for a 1-D tally
// and gridScan (hist2d.go) for a 2-D grid with an optional group axis —
// each taking the sketch's (rate, seed). A rate below 1 is a branch
// inside the driver, not a second driver: sampleBatches gathers the
// deterministic Sample sequence into row batches, which keeps randomized
// sketches replayable (paper §5.8); sampled heavy hitters call it, or
// gatherBatches at rate 1, directly. At rate 1 a scan is decomposed into batches of at most
// kernelBatch rows, and each batch reaches the kernel in one of three
// forms, per the membership batch-iteration contract (see
// table.Membership):
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
//     without a word form take the gather path (gatherBatches):
//     FillBatch bulk-decodes member rows into a reused buffer and the
//     kernel gathers column values through it.
//
// Every form visits exactly the rows Iterate (or Sample) visits, in the
// same order, so batch results are identical to the row-at-a-time
// reference scans the tests keep.

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
	gatherBatches(m, rowsf)
}

// gatherBatches bulk-decodes the member rows of m into batches, in
// Iterate order, and passes each to rowsf; the rows slice is reused
// between calls.
func gatherBatches(m table.Membership, rowsf func(rows []int32)) {
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

// histogramScan tallies the scanned rows of m into h through bi: at a
// rate below 1 the Sample(rate, seed) rows, gathered into batches; at
// rate 1 every member row, spans and bitmap words tallied in place.
func histogramScan(m table.Membership, bi BatchIndexer, h *Histogram, rate float64, seed uint64) {
	tallies := make([]int64, len(h.Counts)+2)
	// Each branch has its own rows literal: one shared with the sample
	// branch escapes, and would cost the exact scan an allocation.
	if rate < 1 {
		sampleBatches(m, rate, seed, func(rows []int32) { bi.CountRows(rows, tallies) })
	} else {
		scanWordBatches(m,
			func(a, b int) { bi.CountSpan(a, b, tallies) },
			func(base int, words []uint64) { bi.CountWords(base, words, tallies) },
			func(rows []int32) { bi.CountRows(rows, tallies) })
	}
	addTallies(h, tallies)
}

// addTallies adds a tally array laid out as BatchIndexer's slots to h.
// Every scanned row is in exactly one tally, so their sum is the row
// count.
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
