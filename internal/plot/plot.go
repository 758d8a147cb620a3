// Package plot renders time series as ASCII charts for terminal-first
// workflows (power traces against budgets, learning curves, sweeps) and
// rows as aligned text tables. It has no styling dependencies and writes
// plain text suitable for logs and EXPERIMENTS records.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one labelled line of (x, y) points. X must be non-decreasing
// for the rendering to be meaningful, but this is not enforced.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// markers distinguish overlapping series in drawing order.
var markers = []rune{'*', 'o', '+', 'x', '#', '@'}

// Render draws the series onto a width×height character canvas with a
// y-axis scale, an x-range footer and a legend. Width and height are the
// plot area dimensions (excluding axes); minimums are enforced.
func Render(w io.Writer, title string, width, height int, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x values and %d y values",
				s.Label, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return fmt.Errorf("plot: series %q is empty", s.Label)
		}
	}

	xMin, xMax := math.Inf(1), math.Inf(-1)
	yMin, yMax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			xMin = math.Min(xMin, s.X[i])
			xMax = math.Max(xMax, s.X[i])
			yMin = math.Min(yMin, s.Y[i])
			yMax = math.Max(yMax, s.Y[i])
		}
	}
	if xMax == xMin {
		xMax = xMin + 1
	}
	if yMax == yMin {
		yMax = yMin + 1
	}
	// A little vertical headroom keeps extremes off the frame.
	pad := (yMax - yMin) * 0.05
	yMin -= pad
	yMax += pad

	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = make([]rune, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			col := int(float64(width-1) * (s.X[i] - xMin) / (xMax - xMin))
			row := height - 1 - int(float64(height-1)*(s.Y[i]-yMin)/(yMax-yMin))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for r, rowRunes := range grid {
		// Y label on the top, middle and bottom rows.
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.4g", yMax)
		case height / 2:
			label = fmt.Sprintf("%8.4g", (yMax+yMin)/2)
		case height - 1:
			label = fmt.Sprintf("%8.4g", yMin)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(rowRunes))
	}
	fmt.Fprintf(&b, "%9s+%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%9s%-*.4g%*.4g\n", "", width/2, xMin, width-width/2, xMax)
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Label))
	}
	fmt.Fprintf(&b, "%9s%s\n", "", strings.Join(legend, "   "))
	_, err := io.WriteString(w, b.String())
	return err
}

// HLine builds a two-point horizontal series at level y spanning [x0, x1],
// e.g. a budget line across a power trace.
func HLine(label string, x0, x1, y float64) Series {
	return Series{Label: label, X: []float64{x0, x1}, Y: []float64{y, y}}
}
