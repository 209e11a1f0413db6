package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleMeanStddev(t *testing.T) {
	var s Sample
	s.AddN(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean=%v, want 5", got)
	}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := s.Stddev(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev=%v, want %v", got, want)
	}
}

func TestEmptySampleIsZero(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stddev() != 0 || s.Percentile(0) != 0 || s.Percentile(100) != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSingleObservationStddevZero(t *testing.T) {
	var s Sample
	s.Add(42)
	if s.Stddev() != 0 {
		t.Fatal("stddev of single observation must be 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	var s Sample
	s.AddN(3, -1, 7, 0)
	if s.Sum() != 9 || s.Percentile(0) != -1 || s.Percentile(100) != 7 {
		t.Fatalf("min=%v max=%v sum=%v", s.Percentile(0), s.Percentile(100), s.Sum())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0=%v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Fatalf("p100=%v", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("p50=%v, want 50.5", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
			s.Add(v)
		}
		m := s.Mean()
		return m >= s.Percentile(0)-1e-6 && m <= s.Percentile(100)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesYAt(t *testing.T) {
	s := &Series{Name: "a"}
	s.Add(1, 10)
	s.Add(2, 20)
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Fatalf("YAt(2)=%v,%v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Fatal("YAt(3) should be absent")
	}
}

func TestFigureAddAndGet(t *testing.T) {
	f := &Figure{Title: "t"}
	a := f.AddSeries("alpha")
	a.Add(1, 1)
	if f.Get("alpha") != a {
		t.Fatal("Get did not return the added series")
	}
	if f.Get("missing") != nil {
		t.Fatal("Get of missing series should be nil")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"sys", "cycles"}}
	tb.AddRow("2x4-core Intel", "845")
	tb.AddRow("8x4 AMD", "1549")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[1], "sys") || !strings.Contains(lines[1], "cycles") {
		t.Fatalf("header line wrong: %q", lines[1])
	}
	// All data lines should be at least as wide as the widest cell column.
	if len(lines[3]) < len("2x4-core Intel") {
		t.Fatalf("row not padded: %q", lines[3])
	}
}

func TestRenderFigureListsAllXs(t *testing.T) {
	f := &Figure{Title: "fig", XLabel: "cores", YLabel: "cycles"}
	a := f.AddSeries("A")
	a.Add(2, 100)
	a.Add(4, 200)
	b := f.AddSeries("B")
	b.Add(4, 150)
	b.Add(8, 300)
	out := RenderFigure(f, 0, 0)
	for _, want := range []string{"cores", "A", "B", "2", "4", "8", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigureASCIIPlot(t *testing.T) {
	f := &Figure{Title: "fig", XLabel: "x", YLabel: "y"}
	s := f.AddSeries("S")
	for i := 1; i <= 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	out := RenderFigure(f, 40, 10)
	if !strings.Contains(out, "legend:") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("plot missing marks:\n%s", out)
	}
}

func TestAllXsSortedUnique(t *testing.T) {
	f := &Figure{}
	a := f.AddSeries("a")
	a.Add(3, 1)
	a.Add(1, 1)
	b := f.AddSeries("b")
	b.Add(3, 2)
	b.Add(2, 2)
	xs := allXs(f)
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("xs not sorted: %v", xs)
	}
	if len(xs) != 3 {
		t.Fatalf("xs not deduplicated: %v", xs)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(5) != "5" {
		t.Fatalf("trimFloat(5)=%q", trimFloat(5))
	}
	if trimFloat(5.25) != "5.25" {
		t.Fatalf("trimFloat(5.25)=%q", trimFloat(5.25))
	}
}
