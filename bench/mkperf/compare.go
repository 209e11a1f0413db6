package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles compares set B (a change) against set A (its parent), metric
// by metric and workload by workload: a gain needs B to win at least 9 of 10 seed-paired runs and the
// medians to differ by more than A's interquartile range; an end-to-end
// metric regresses when B's median is worse than A's by more than its bound,
// and is unresolved when A's own spread exceeds the bound (unless every B
// run beats every A run). It reports whether no end-to-end metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A %s: commit %s, %d runs, runner_cores %d, %s\n", pathA, a.Commit, len(a.Runs), a.RunnerCores, a.GoVersion)
	fmt.Fprintf(w, "B %s: commit %s, %d runs, runner_cores %d, %s\n\n", pathB, b.Commit, len(b.Runs), b.RunnerCores, b.GoVersion)
	fmt.Fprintf(w, "%-8s %-6s %-28s %-7s %-30s %-30s %-7s %-6s %s\n",
		"workload", "pass", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B wins", "bound", "verdict")

	regressions, unresolved := 0, 0
	virtPairs, virtDiffs := 0, 0
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			ra, rb := pick(a, wl.name, traced), pick(b, wl.name, traced)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			pass := "timed"
			if traced {
				pass = "traced"
			}
			for _, sp := range allSpecs() {
				va, vb := values(ra, sp.name), values(rb, sp.name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				pairs := pairBySeed(ra, rb, sp.name)
				verdict := judge(sp, va, vb, pairs)
				switch verdict {
				case "REGRESSED":
					regressions++
				case "unresolved":
					unresolved++
				}
				if sp.virtual {
					virtPairs++
					for _, p := range pairs {
						if p[0] != p[1] {
							virtDiffs++
							verdict += ", virtual differs"
							break
						}
					}
				}
				bound := "-"
				if sp.bound > 0 {
					bound = fmt.Sprintf("%.2f", sp.bound)
				}
				fmt.Fprintf(w, "%-8s %-6s %-28s %-7s %-30s %-30s %-7s %-6s %s\n",
					wl.name, pass, sp.name, sp.unit, quartileText(va), quartileText(vb),
					winText(sp, pairs), bound, verdict)
			}
		}
	}
	fmt.Fprintf(w, "\nvirtual metrics identical on seed-paired runs: %v (%d metrics compared, %d differ)\n", virtDiffs == 0, virtPairs, virtDiffs)
	fmt.Fprintf(w, "end-to-end regressions: %d, unresolved: %d\n", regressions, unresolved)
	return regressions == 0, nil
}

func loadSet(path string) (*Set, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func pick(s *Set, workload string, traced bool) []Record {
	var out []Record
	for _, r := range s.Runs {
		if r.Workload == workload && r.Traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func values(rs []Record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairBySeed matches A and B runs made with the same seed.
func pairBySeed(ra, rb []Record, name string) [][2]float64 {
	var out [][2]float64
	for _, x := range ra {
		for _, y := range rb {
			mx, okx := x.Metrics[name]
			my, oky := y.Metrics[name]
			if x.Seed == y.Seed && okx && oky {
				out = append(out, [2]float64{mx.Value, my.Value})
				break
			}
		}
	}
	return out
}

func better(sp spec, x, y float64) bool {
	if sp.higher {
		return x > y
	}
	return x < y
}

// judge returns the verdict for one (workload, metric).
func judge(sp spec, va, vb []float64, pairs [][2]float64) string {
	qa, qb := quartiles(va), quartiles(vb)
	wins, losses := 0, 0
	for _, p := range pairs {
		switch {
		case better(sp, p[1], p[0]):
			wins++
		case better(sp, p[0], p[1]):
			losses++
		}
	}
	iqr := qa[2] - qa[0]
	diff := math.Abs(qb[1] - qa[1])
	n := len(pairs)
	switch {
	case n > 0 && wins*10 >= 9*n && diff > iqr && better(sp, qb[1], qa[1]):
		return "improved"
	case sp.bound == 0:
		if n > 0 && losses*10 >= 9*n && diff > iqr {
			return "worse"
		}
		return "-"
	}
	if iqr > sp.bound*math.Abs(qa[1]) && !allBetter(sp, vb, va) {
		return "unresolved"
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if sp.higher {
		worse = -worse
	}
	if worse > sp.bound {
		return "REGRESSED"
	}
	return "ok"
}

// allBetter reports whether every value of xs beats every value of ys.
func allBetter(sp spec, xs, ys []float64) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(sp, x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns [q1, median, q3] as Python's statistics.quantiles(n=4)
// computes them (the "exclusive" method); a single value is its own
// quartiles.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func quartileText(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2])
}

func winText(sp spec, pairs [][2]float64) string {
	wins := 0
	for _, p := range pairs {
		if better(sp, p[1], p[0]) {
			wins++
		}
	}
	return fmt.Sprintf("%d/%d", wins, len(pairs))
}
