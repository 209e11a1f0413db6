package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeScale shrinks every workload window so one traced run of all four
// workloads takes about a second.
const smokeScale = 0.02

func smokeRun(t *testing.T, w *workload, seed uint64, traced bool) *Record {
	t.Helper()
	rec := run(w, config{seed: seed, traced: traced, scale: smokeScale, setups: 1})
	if !rec.Correct {
		t.Fatalf("%s seed %d failed its checks: %d/%d ops failed, errors %v", w.name, seed, rec.Failed, rec.Attempted, rec.Errors)
	}
	return rec
}

// virtualOf returns the run's virtual-clock metrics.
func virtualOf(r *Record) map[string]float64 {
	out := map[string]float64{}
	for name, m := range r.Metrics {
		if sp, ok := specOf(name); ok && sp.virtual {
			out[name] = m.Value
		}
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := smokeRun(t, w, 1, true)
			for _, sp := range append(append([]spec{}, endToEnd...), perLayer...) {
				if _, ok := a.Metrics[sp.name]; !ok {
					t.Errorf("metric %s missing", sp.name)
				}
			}
			if a.Metrics["vops_per_s"].Value <= 0 || a.Metrics["mean_cycles"].Value <= 0 {
				t.Errorf("no operations in the window: %+v", a.Metrics)
			}

			// The untraced reruns report a subset of the traced run's metrics.
			va, vb := virtualOf(a), virtualOf(smokeRun(t, w, 1, false))
			for name, v := range vb {
				if va[name] != v {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, va[name], v)
				}
			}
			differs := false
			for name, v := range virtualOf(smokeRun(t, w, 2, false)) {
				differs = differs || va[name] != v
			}
			if !differs {
				t.Errorf("seeds 1 and 2 gave identical virtual metrics")
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports, with the same units, directions and
// bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, mkperf %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, mkperf %q", i, b.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, mkperf %d", kind, len(got), len(want))
		}
		for i, sp := range want {
			better := "lower"
			if sp.higher {
				better = "higher"
			}
			m := metric{Name: sp.name, Unit: sp.unit, Better: better, Bound: sp.bound}
			if got[i] != m {
				t.Errorf("%s %d: BENCHMARK.json %+v, mkperf %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{2.5, 7}, [3]float64{1.375, 4.75, 8.125}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
