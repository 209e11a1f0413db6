// Package stats provides the small statistical and rendering toolkit used by
// the benchmark harness: sample accumulation (mean, standard deviation,
// percentiles), named data series, and plain-text table / ASCII-figure
// rendering in the style of the paper's tables and plots.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates observations of a scalar quantity.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(v float64) {
	s.xs = append(s.xs, v)
	s.sorted = false
}

// AddN appends several observations.
func (s *Sample) AddN(vs ...float64) {
	s.xs = append(s.xs, vs...)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.xs {
		sum += v
	}
	return sum / float64(len(s.xs))
}

// Stddev returns the sample standard deviation (n-1 denominator), or 0 for
// samples of size < 2.
func (s *Sample) Stddev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, v := range s.xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, v := range s.xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Values returns the observations in insertion order. Calling Percentile
// reorders them; take a copy if both are needed.
func (s *Sample) Values() []float64 { return s.xs }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	var sum float64
	for _, v := range s.xs {
		sum += v
	}
	return sum
}

// Point is one (x, y) observation in a Series.
type Point struct {
	X float64
	Y float64
	// Err is an optional error-bar half-height (e.g. standard deviation).
	Err float64
}

// Series is a named sequence of points, one line on a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// AddErr appends a point with an error bar.
func (s *Series) AddErr(x, y, err float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Err: err})
}

// YAt returns the Y value at the given X, or (0, false) if absent.
func (s *Series) YAt(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Figure is a set of series plus axis labels — the data behind one of the
// paper's plots.
type Figure struct {
	Key    string // headline-metric prefix, e.g. "fig6" for "fig6.Unicast@32"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries creates, attaches and returns a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (f *Figure) Get(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Table is a plain rows-and-columns result, like the paper's tables.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the table formatted as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// RenderFigure renders a figure as a column-per-series text listing followed
// by a coarse ASCII plot, enough to eyeball curve shapes in a terminal.
func RenderFigure(f *Figure, plotWidth, plotHeight int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)

	// Tabular listing.
	tab := Table{Columns: append([]string{f.XLabel}, seriesNames(f)...)}
	for _, x := range allXs(f) {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			if y, ok := s.YAt(x); ok {
				row = append(row, trimFloat(y))
			} else {
				row = append(row, "-")
			}
		}
		tab.AddRow(row...)
	}
	b.WriteString(tab.Render())

	if plotWidth > 0 && plotHeight > 0 {
		b.WriteString(asciiPlot(f, plotWidth, plotHeight))
	}
	return b.String()
}

func seriesNames(f *Figure) []string {
	out := make([]string, len(f.Series))
	for i, s := range f.Series {
		out[i] = s.Name
	}
	return out
}

func allXs(f *Figure) []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

func asciiPlot(f *Figure, w, h int) string {
	var xmin, xmax, ymax float64
	first := true
	for _, s := range f.Series {
		for _, p := range s.Points {
			if first {
				xmin, xmax = p.X, p.X
				first = false
			}
			if p.X < xmin {
				xmin = p.X
			}
			if p.X > xmax {
				xmax = p.X
			}
			if p.Y > ymax {
				ymax = p.Y
			}
		}
	}
	if first || xmax == xmin || ymax == 0 {
		return ""
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	marks := []byte("*+xo#@%&")
	for si, s := range f.Series {
		m := marks[si%len(marks)]
		for _, p := range s.Points {
			cx := int(float64(w-1) * (p.X - xmin) / (xmax - xmin))
			cy := h - 1 - int(float64(h-1)*p.Y/ymax)
			if cy >= 0 && cy < h && cx >= 0 && cx < w {
				grid[cy][cx] = m
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s (max %s)\n", f.YLabel, trimFloat(ymax))
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s\n", string(row))
	}
	fmt.Fprintf(&b, "+%s\n", strings.Repeat("-", w))
	fmt.Fprintf(&b, " %s: %s .. %s   legend:", f.XLabel, trimFloat(xmin), trimFloat(xmax))
	for si, s := range f.Series {
		fmt.Fprintf(&b, " %c=%s", marks[si%len(marks)], s.Name)
	}
	b.WriteByte('\n')
	return b.String()
}
