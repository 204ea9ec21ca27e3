// Package metrics collects experiment measurements and renders them as
// the CDFs, series, and tables the paper's figures report.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Samples is an accumulating set of scalar measurements.
type Samples struct {
	values []float64
	sorted bool
}

// Add appends a measurement.
func (s *Samples) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// AddDuration appends a duration in milliseconds.
func (s *Samples) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// Len returns the number of samples.
func (s *Samples) Len() int { return len(s.values) }

// ensureSorted sorts lazily.
func (s *Samples) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean (0 for empty).
func (s *Samples) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Percentile returns the p-quantile (p in [0, 1]) by nearest-rank.
func (s *Samples) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.values[0]
	}
	if p >= 1 {
		return s.values[len(s.values)-1]
	}
	rank := int(math.Ceil(p*float64(len(s.values)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.values[rank]
}

// Max returns the largest sample.
func (s *Samples) Max() float64 { return s.Percentile(1) }

// Summary renders mean/percentiles compactly.
func (s *Samples) Summary() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.Len(), s.Mean(), s.Percentile(0.5), s.Percentile(0.9), s.Percentile(0.99), s.Max())
}

// Table renders aligned experiment output: a header row plus data rows.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fms", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// pad right-pads s to width.
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}
