// Command traceguard enforces the repository's cost contracts in CI against
// committed baselines in ci/trace_overhead_baseline.txt. Every contract is
// one row of the contracts table below: a package, a -bench regexp, and the
// kind of check its measurements get.
//
//   - tolerance: host time. The trace layer's tracing-off benchmarks run
//     several times, the minimum ns/op per benchmark is taken (the
//     least-noisy estimate of the true cost), and any exceeding its
//     baseline by more than -tolerance fails. The baseline is
//     machine-dependent, so the tolerance absorbs runner noise.
//
//   - ceiling: a deterministic simulated metric (keys with a ":unit" suffix
//     in the baseline), the same on every run and every machine: the URPC
//     transport's cycles per message and per bulk line, the scaled
//     coherence modes' event counts and fabric dwords on the 256-core
//     mesh, and the events and cache hits of idle monitor polling on the
//     8x4 machine. The baseline pins it exactly, so the row is a floor as
//     well as a ceiling: an increase fails as SLOW and a decrease as FAST.
//     A change that moves a pin on purpose re-pins it with -update and
//     says why.
//
//   - equal: a ceiling whose selected sub-benchmarks must also report the
//     same value per unit. The parallel engine's pinned workload and the
//     parallel full-system boot replay one schedule at 1, 2 and 4 workers,
//     so a run that dispatches one event more or fewer than the serial one
//     has diverged from it. The observability plane's base and disabled
//     runs must end on the same cycle: a disabled plane charges zero
//     virtual time.
//
// Usage:
//
//	go run ./ci/traceguard            # check against the baseline
//	go run ./ci/traceguard -update    # re-measure and rewrite the baseline
//
// -tolerance (default 0.05 per the tracing-overhead budget) applies only to
// the host-time rows and can be widened on heterogeneous runners; -update
// refreshes the file after intentional engine or transport changes.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

const baselineFile = "ci/trace_overhead_baseline.txt"

// kind is how a contract's measurements are judged.
type kind int

const (
	tolerance kind = iota // host ns/op, within -tolerance of the baseline
	ceiling               // deterministic sim metric, exactly the baseline
	equal                 // ceiling, and equal across the row's sub-benchmarks
)

// contract is one row of the cost-contract table.
type contract struct {
	pkg   string
	bench string // -bench regexp
	kind  kind
}

var contracts = []contract{
	{"./internal/sim/", "TraceOff", tolerance},
	{"./internal/urpc/", "URPCPipelined|URPCOneHop|BulkTransfer", ceiling},
	{"./internal/sim/", "ParallelEnginePinned", equal},
	{"./internal/expt/", "BootParallelPinned", equal},
	{"./internal/expt/", "KVClusterPinned", equal},
	{"./internal/expt/", "DirectoryPinned", ceiling},
	{"./internal/expt/", "MonitorIdlePinned", ceiling},
	{"./internal/obs/", "ObsPinned/(base|disabled)", equal},
	{"./internal/obs/", "ObsPinned/sampling", ceiling},
}

func main() {
	update := flag.Bool("update", false, "rewrite the baseline from fresh measurements")
	tol := flag.Float64("tolerance", 0.05, "allowed fractional regression over the baseline")
	count := flag.Int("count", 5, "benchmark repetitions (minimum taken)")
	benchtime := flag.String("benchtime", "0.3s", "per-repetition benchmark time")
	flag.Parse()

	measured := make([]map[string]float64, len(contracts))
	for i, c := range contracts {
		got, err := measure(c, *count, *benchtime)
		if err != nil {
			fmt.Fprintf(os.Stderr, "traceguard: %v\n", err)
			os.Exit(1)
		}
		if len(got) == 0 {
			fmt.Fprintf(os.Stderr, "traceguard: no %s benchmarks found in %s\n", c.bench, c.pkg)
			os.Exit(1)
		}
		measured[i] = got
	}

	if *update {
		all := map[string]float64{}
		for _, got := range measured {
			maps.Copy(all, got)
		}
		if err := writeBaseline(all); err != nil {
			fmt.Fprintf(os.Stderr, "traceguard: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baseline %s updated:\n", baselineFile)
		for _, name := range slices.Sorted(maps.Keys(all)) {
			fmt.Printf("  %-42s %10.2f\n", name, all[name])
		}
		return
	}

	baseline, err := readBaseline()
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceguard: %v (run with -update to create it)\n", err)
		os.Exit(1)
	}
	failed := false
	for i, c := range contracts {
		lines, ok := evaluate(c, measured[i], baseline, *tol)
		for _, l := range lines {
			fmt.Println(l)
		}
		failed = failed || !ok
	}
	if failed {
		fmt.Fprintln(os.Stderr, "traceguard: cost contract violated (see lines above)")
		os.Exit(1)
	}
}

// evaluate judges one contract's measurements, keyed as in the baseline
// file, against the baseline. It returns one report line per measurement
// (plus one per broken equality) and whether the contract held.
func evaluate(c contract, got, baseline map[string]float64, tol float64) (lines []string, ok bool) {
	ok = true
	for _, name := range slices.Sorted(maps.Keys(got)) {
		v := got[name]
		want, known := baseline[name]
		switch {
		case !known:
			lines = append(lines, fmt.Sprintf("NEW   %-42s %10.2f (no baseline; run -update)", name, v))
			ok = false
		case c.kind == tolerance:
			status := "ok   "
			if v/want > 1+tol {
				status = "SLOW "
				ok = false
			}
			lines = append(lines, fmt.Sprintf("%s %-42s %10.2f ns/op vs baseline %10.2f (%+.1f%%)",
				status, name, v, want, (v/want-1)*100))
		case v != want:
			status := "SLOW "
			if v < want {
				status = "FAST "
			}
			lines = append(lines, fmt.Sprintf("%s %-42s %10.2f vs baseline %10.2f (a pin moved; re-pin with -update and say why)", status, name, v, want))
			ok = false
		default:
			lines = append(lines, fmt.Sprintf("ok    %-42s %10.2f (exact)", name, v))
		}
	}
	if c.kind != equal {
		return lines, ok
	}
	// Every sub-benchmark must report the first one's value for each unit.
	first := map[string]string{} // unit -> first key reporting it
	for _, name := range slices.Sorted(maps.Keys(got)) {
		unit := name[strings.LastIndexByte(name, ':')+1:]
		ref, seen := first[unit]
		if !seen {
			first[unit] = name
			continue
		}
		if got[name] != got[ref] {
			lines = append(lines, fmt.Sprintf("UNEQ  %s %.2f != %s %.2f (must be equal)", name, got[name], ref, got[ref]))
			ok = false
		}
	}
	return lines, ok
}

// measure runs one contract's benchmarks and returns their metrics keyed as
// in the baseline file: "BenchmarkName" for host ns/op (the minimum over
// count repetitions), "BenchmarkName:unit" for simulated metrics (one run).
func measure(c contract, count int, benchtime string) (map[string]float64, error) {
	if c.kind != tolerance {
		count, benchtime = 1, "1x"
	}
	out, err := exec.Command("go", "test", "-run=NONE", "-bench="+c.bench,
		"-count="+strconv.Itoa(count), "-benchtime="+benchtime, c.pkg).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s benchmark run failed: %v\n%s", c.pkg, err, out)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		// "BenchmarkTraceOffWake-8   258276   799.1 ns/op   0 B/op   0 allocs/op"
		// "BenchmarkParallelEnginePinned/w2   1   51 ms/op   121804 simevents/op"
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimSuffix(fields[0], "-"+lastCPUSuffix(fields[0]))
		for i := 3; i < len(fields); i++ {
			unit, key := fields[i], name+":"+fields[i]
			if c.kind == tolerance {
				if unit != "ns/op" {
					continue
				}
				key = name
			} else if !strings.HasPrefix(unit, "simcycles/") && !strings.HasPrefix(unit, "simevents/") &&
				!strings.HasPrefix(unit, "simhits/") && !strings.HasPrefix(unit, "simdwords/") {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			if cur, seen := got[key]; !seen || v < cur {
				got[key] = v
			}
		}
	}
	return got, nil
}

// lastCPUSuffix returns the trailing GOMAXPROCS suffix of a benchmark name
// ("8" in "BenchmarkFoo-8"), or "" when absent.
func lastCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i+1:]
}

func readBaseline() (map[string]float64, error) {
	data, err := os.ReadFile(baselineFile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", baselineFile, line)
		}
		ns, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", baselineFile, err)
		}
		out[fields[0]] = ns
	}
	return out, nil
}

func writeBaseline(m map[string]float64) error {
	var b strings.Builder
	b.WriteString("# Cost baselines enforced by ci/traceguard (-update rewrites).\n")
	b.WriteString("# Plain keys: minimum ns/op of the tracing-off benchmarks; CI fails\n")
	b.WriteString("# when a measurement exceeds its line by more than -tolerance.\n")
	b.WriteString("# \":unit\" keys: deterministic simulated metrics (URPC v2 transport\n")
	b.WriteString("# costs; parallel-engine pinned event counts, which must also match\n")
	b.WriteString("# across worker counts), pinned exactly — any change fails CI.\n")
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "%s %.2f\n", name, m[name])
	}
	return os.WriteFile(baselineFile, []byte(b.String()), 0o644)
}
