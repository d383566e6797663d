package render

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sketch"
)

// asciiShades maps density levels to characters, light to dark.
var asciiShades = []byte(" .:-=+*#%@")

// HistogramASCII renders a histogram as rows of bars for terminals,
// width columns wide and height lines tall.
func HistogramASCII(h *sketch.Histogram, width, height int) string {
	n := len(h.Counts)
	if n == 0 || height < 1 {
		return "(empty)\n"
	}
	if width < n {
		width = n
	}
	colW := width / n
	if colW < 1 {
		colW = 1
	}
	heights := BarHeights(h, height)
	var sb strings.Builder
	for line := height; line >= 1; line-- {
		for i := 0; i < n; i++ {
			ch := byte(' ')
			if heights[i] >= line {
				ch = '#'
			}
			for c := 0; c < colW; c++ {
				sb.WriteByte(ch)
			}
		}
		sb.WriteByte('\n')
	}
	for i := 0; i < n*colW; i++ {
		sb.WriteByte('-')
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%s .. %s  (max bar=%d, missing=%d, sampled=%d)\n",
		h.Buckets.LabelOf(0), h.Buckets.LabelOf(n-1), h.MaxCount(), h.Missing, h.SampledRows)
	return sb.String()
}

// HeatmapASCII renders a heat map as character shades.
func HeatmapASCII(h2 *sketch.Histogram2D) string {
	max := h2.MaxCell()
	var sb strings.Builder
	for yi := h2.Y.Count - 1; yi >= 0; yi-- {
		for xi := 0; xi < h2.X.Count; xi++ {
			level := ShadeOf(h2.At(xi, yi), max)
			sb.WriteByte(asciiShades[level*(len(asciiShades)-1)/Shades])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TableASCII renders a NextKList as an aligned text table with the
// given column headers (order columns first, then extras) and the
// duplicate counts the spreadsheet shows (paper §3.3).
func TableASCII(l *sketch.NextKList, headers []string) string {
	widths := make([]int, len(headers))
	for i, name := range headers {
		widths[i] = len(name)
	}
	cells := make([][]string, len(l.Rows))
	for r, row := range l.Rows {
		cells[r] = make([]string, len(headers))
		for c := range headers {
			s := ""
			if c < len(row) {
				s = row[c].String()
				if row[c].Missing {
					s = "∅"
				}
			}
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cols []string, count string) {
		for c, s := range cols {
			fmt.Fprintf(&sb, "| %-*s ", widths[c], s)
		}
		fmt.Fprintf(&sb, "| %s\n", count)
	}
	writeRow(headers, "count")
	for c := range headers {
		sb.WriteString("|" + strings.Repeat("-", widths[c]+2))
	}
	sb.WriteString("|------\n")
	for r := range cells {
		writeRow(cells[r], fmt.Sprintf("%d", l.Counts[r]))
	}
	fmt.Fprintf(&sb, "position %d of %d rows\n", l.Before, l.Total)
	return sb.String()
}

// HeavyHittersASCII renders heavy hitter items with share-of-total bars.
func HeavyHittersASCII(items []sketch.HHItem, total int64) string {
	var sb strings.Builder
	for _, it := range items {
		share := 0.0
		if total > 0 {
			share = float64(it.Count) / float64(total)
		}
		bar := strings.Repeat("#", int(share*50))
		fmt.Fprintf(&sb, "%-16s %10d  %5.1f%% %s\n", it.Value.String(), it.Count, share*100, bar)
	}
	return sb.String()
}

// MomentsASCII renders a column summary.
func MomentsASCII(col string, m *sketch.Moments) string {
	return fmt.Sprintf("%s: n=%d missing=%d min=%g max=%g mean=%.3f stddev=%.3f\n",
		col, m.Count, m.Missing, m.Min, m.Max, m.Mean(), sqrtOrZero(m.Variance()))
}

func sqrtOrZero(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
