// Package render draws chart summaries as SVG and ASCII. It is the
// endpoint of the visualization-driven pipeline: renderers consume only
// vizketch summaries — never row data — so whatever appears on screen
// was computed at exactly the precision the summary carries (paper
// §4.1-4.2, Fig 3). It substitutes for Hillview's TypeScript/D3
// front end.
package render

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sketch"
)

// Shades is the number of distinguishable density levels used by heat
// map renderings (paper §4.3: c ≈ 20 distinct colors).
const Shades = 20

// ShadeOf quantizes a density in [0, max] to one of Shades+1 levels
// (level 0 = empty). The vizketch accuracy guarantee is exactly "off by
// at most one level" (Fig 3d).
func ShadeOf(count, max int64) int {
	if max <= 0 || count <= 0 {
		return 0
	}
	s := int(math.Ceil(float64(count) / float64(max) * Shades))
	if s > Shades {
		s = Shades
	}
	return s
}

// BarHeights scales histogram counts to pixel heights with the tallest
// bar at v pixels — the rendering step whose ±0.5 px rounding the
// sampled histogram's accuracy is matched to (Fig 3b).
func BarHeights(h *sketch.Histogram, v int) []int {
	max := h.MaxCount()
	out := make([]int, len(h.Counts))
	if max == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = int(math.Round(float64(c) / float64(max) * float64(v)))
	}
	return out
}

// svgBuilder accumulates an SVG document.
type svgBuilder struct {
	sb   strings.Builder
	w, h int
}

func newSVG(w, h int) *svgBuilder {
	b := &svgBuilder{w: w, h: h}
	fmt.Fprintf(&b.sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	b.sb.WriteByte('\n')
	return b
}

func (b *svgBuilder) rect(x, y, w, h int, fill string) {
	fmt.Fprintf(&b.sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`, x, y, w, h, fill)
	b.sb.WriteByte('\n')
}

func (b *svgBuilder) polyline(pts []point, stroke string) {
	b.sb.WriteString(`<polyline fill="none" stroke="` + stroke + `" points="`)
	for i, p := range pts {
		if i > 0 {
			b.sb.WriteByte(' ')
		}
		fmt.Fprintf(&b.sb, "%d,%d", p.x, p.y)
	}
	b.sb.WriteString(`"/>`)
	b.sb.WriteByte('\n')
}

func (b *svgBuilder) text(x, y int, s string) {
	fmt.Fprintf(&b.sb, `<text x="%d" y="%d" font-size="10">%s</text>`, x, y, escape(s))
	b.sb.WriteByte('\n')
}

func (b *svgBuilder) String() string { return b.sb.String() + "</svg>\n" }

type point struct{ x, y int }

func escape(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s)
}

// HistogramSVG renders a histogram (with optional CDF overlay) at
// w × h pixels.
func HistogramSVG(hv *sketch.Histogram, cdf *sketch.Histogram, w, h int) string {
	b := newSVG(w, h)
	n := len(hv.Counts)
	if n == 0 {
		return b.String()
	}
	heights := BarHeights(hv, h-14)
	barW := w / n
	if barW < 1 {
		barW = 1
	}
	for i, bh := range heights {
		if bh > 0 {
			b.rect(i*barW, h-bh, barW-1, bh, "#4292c6")
		}
	}
	if cdf != nil {
		vals := cdf.CDF()
		pts := make([]point, len(vals))
		for i, v := range vals {
			pts[i] = point{x: i * w / len(vals), y: h - int(v*float64(h-14))}
		}
		b.polyline(pts, "#de2d26")
	}
	b.text(2, 10, fmt.Sprintf("%s  max=%d missing=%d", hv.Buckets.LabelOf(0), hv.MaxCount(), hv.Missing))
	return b.String()
}
