// Package trace renders experiment output: aligned text tables, ASCII
// bar/line charts and SVG charts that preserve the shape of the paper's
// figures.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// Add appends a row; values are formatted with %v, floats with %.3g
// unless already strings.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000 || math.Abs(v) < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Bars renders a horizontal ASCII bar chart of labelled values, scaled
// to width characters at the maximum value.
func Bars(w io.Writer, title string, labels []string, values []float64, width int) {
	if width <= 0 {
		width = 48
	}
	fmt.Fprintln(w, title)
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	for i, v := range values {
		n := int(math.Round(v / maxV * float64(width)))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  %s %s %.3g\n", pad(labels[i], maxL), strings.Repeat("#", n), v)
	}
}

// Series renders one or more named line series over a shared x axis as
// a compact text block (x, then one column per series) — the textual
// analogue of the paper's line figures.
func Series(w io.Writer, title, xName string, x []float64, names []string, ys [][]float64) {
	fmt.Fprintln(w, title)
	t := NewTable(append([]string{xName}, names...)...)
	for i := range x {
		cells := make([]interface{}, 0, len(ys)+1)
		cells = append(cells, x[i])
		for _, s := range ys {
			if i < len(s) {
				cells = append(cells, s[i])
			} else {
				cells = append(cells, "")
			}
		}
		t.Add(cells...)
	}
	t.Render(w)
}
