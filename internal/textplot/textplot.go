// Package textplot renders small multi-series scatter/line charts as
// text, so the experiment reports can show the paper's figures — P99
// versus harvested cores scatters, reassignment-latency CDFs, square-wave
// time series — directly in a terminal and in the results files.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Point is one sample of a series.
type Point struct {
	X, Y float64
}

// Series is a named point set; the Glyph (one rune) marks its points.
type Series struct {
	Name   string
	Glyph  rune
	Points []Point
}

// defaultGlyphs are assigned to series without an explicit glyph.
var defaultGlyphs = []rune{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Options control rendering.
type Options struct {
	// Width and Height are the plot area size in characters, at least
	// 16x4: a smaller value, zero included, is raised to that.
	Width, Height int
	// Title is printed above the plot.
	Title string
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// LogY plots the Y axis logarithmically (useful for latency).
	LogY bool
	// YMin/YMax fix the Y range; both zero means auto-scale.
	YMin, YMax float64
}

// Render draws the series onto a character grid with axes and a legend.
// Series with no points are skipped; an empty plot returns a note instead
// of axes.
func Render(series []Series, opts Options) string {
	opts.Width, opts.Height = max(opts.Width, 16), max(opts.Height, 4)
	var pts int
	for _, s := range series {
		pts += len(s.Points)
	}
	if pts == 0 {
		return "(no data)\n"
	}

	// Data ranges.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, p := range s.Points {
			minX = math.Min(minX, p.X)
			maxX = math.Max(maxX, p.X)
			minY = math.Min(minY, p.Y)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if opts.YMin != 0 || opts.YMax != 0 {
		minY, maxY = opts.YMin, opts.YMax
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	yOf := func(v float64) float64 { return v }
	if opts.LogY {
		floor := minY
		if floor <= 0 {
			floor = 1e-9
		}
		yOf = func(v float64) float64 { return math.Log(math.Max(v, floor)) }
	}
	loY, hiY := yOf(minY), yOf(maxY)
	if hiY == loY {
		hiY = loY + 1
	}

	grid := make([][]rune, opts.Height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", opts.Width))
	}
	for si, s := range series {
		glyph := s.Glyph
		if glyph == 0 {
			glyph = defaultGlyphs[si%len(defaultGlyphs)]
		}
		for _, p := range s.Points {
			col := int(math.Round((p.X - minX) / (maxX - minX) * float64(opts.Width-1)))
			row := int(math.Round((yOf(p.Y) - loY) / (hiY - loY) * float64(opts.Height-1)))
			if col < 0 || col >= opts.Width || row < 0 || row >= opts.Height {
				continue
			}
			r := opts.Height - 1 - row
			grid[r][col] = glyph
		}
	}

	var b strings.Builder
	if opts.Title != "" {
		fmt.Fprintf(&b, "%s\n", opts.Title)
	}
	yHiLabel := fmtNum(maxY)
	yLoLabel := fmtNum(minY)
	margin := len(yHiLabel)
	if len(yLoLabel) > margin {
		margin = len(yLoLabel)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", margin)
		if i == 0 {
			label = pad(yHiLabel, margin)
		}
		if i == len(grid)-1 {
			label = pad(yLoLabel, margin)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", margin), strings.Repeat("-", opts.Width))
	// X range line.
	lo, hi := fmtNum(minX), fmtNum(maxX)
	gap := opts.Width - len(lo) - len(hi)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", margin), lo, strings.Repeat(" ", gap), hi)
	if opts.XLabel != "" || opts.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s", strings.Repeat(" ", margin), opts.XLabel, opts.YLabel)
		if opts.LogY {
			b.WriteString(" (log)")
		}
		b.WriteByte('\n')
	}
	// Legend.
	var legend []string
	for si, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		glyph := s.Glyph
		if glyph == 0 {
			glyph = defaultGlyphs[si%len(defaultGlyphs)]
		}
		legend = append(legend, fmt.Sprintf("%c %s", glyph, s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", margin), strings.Join(legend, "   "))
	}
	return b.String()
}

// pad right-aligns s to width.
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return strings.Repeat(" ", width-len(s)) + s
}

// fmtNum formats an axis bound compactly.
func fmtNum(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av >= 10:
		return fmt.Sprintf("%.0f", v)
	case av >= 0.01:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}
