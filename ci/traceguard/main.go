// Command traceguard enforces two cost contracts in CI against committed
// baselines in ci/trace_overhead_baseline.txt:
//
//   - The trace layer's disabled-overhead contract: the tracing-off
//     benchmarks (-bench=TraceOff in internal/sim) run several times, the
//     minimum ns/op per benchmark is taken (the least-noisy estimate of the
//     true cost), and any exceeding its baseline by more than -tolerance
//     fails. These are host-time measurements, so the baseline is
//     machine-dependent and the tolerance absorbs runner noise.
//
//   - The URPC transport-cost contract: the transport benchmarks
//     (-bench='URPCPipelined|URPCOneHop|BulkTransfer' in internal/urpc)
//     report simulated cycles per message — pipelined bursts and the
//     spin, deadline and parked-window single-message paths — and per bulk
//     line. Those metrics are fully deterministic
//     — same value on every run and every machine — so they are pinned
//     exactly (keys with a ":unit" suffix in the baseline): any regression
//     fails, and an improvement prints a reminder to refresh the baseline.
//
//   - The parallel-engine determinism contract: the pinned engine workload
//     (-bench=ParallelEnginePinned in internal/sim) replays the same
//     virtual-time window serially and at 2 and 4 workers, reporting the
//     deterministic simevents/op count per worker configuration. The three
//     entries are pinned exactly like the URPC metrics, so a parallel run
//     that dispatches even one event more or fewer than the committed
//     baseline — i.e. diverges from the serial schedule — fails CI.
//
//   - The parallel-boot determinism contract: the pinned full-system boot
//     workload (-bench=BootParallelPinned in internal/expt) boots the whole
//     multikernel on the 8-socket machine with core.BootParallel and replays
//     the staged shootdown schedule at 1, 2 and 4 workers. Its simevents/op
//     entries are pinned exactly and must match across worker counts — the
//     booted-system analogue of the engine-level gate above.
//
//   - The scaled-coherence determinism contract: the pinned contended
//     workload (-bench=DirectoryPinned in internal/expt) replays the
//     256-core mesh under broadcast-snoop and directory coherence. Both
//     simevents/op entries are pinned exactly, so a cost-model change in
//     either mode — or any drift in the scaled machines' schedules — fails
//     CI.
//
//   - The observability-plane cost contract: the pinned obs workload
//     (-bench=ObsPinned in internal/obs) runs the same cross-socket URPC
//     exchange with no plane, a disabled plane and a live sampling plane.
//     All three simcycles/op values are pinned, and base vs disabled are
//     additionally required to be EQUAL — a disabled plane must charge zero
//     virtual time — while the sampling variant's simevents/window pin
//     catches wire-protocol or aggregation-tree changes that inflate the
//     plane's own traffic.
//
// Usage:
//
//	go run ./ci/traceguard            # check against the baseline
//	go run ./ci/traceguard -update    # re-measure and rewrite the baseline
//
// -tolerance (default 0.05 per the tracing-overhead budget) applies only to
// the host-time half and can be widened on heterogeneous runners; -update
// refreshes the file after intentional engine or transport changes.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

const baselineFile = "ci/trace_overhead_baseline.txt"

func main() {
	update := flag.Bool("update", false, "rewrite the baseline from fresh measurements")
	tolerance := flag.Float64("tolerance", 0.05, "allowed fractional regression over the baseline")
	count := flag.Int("count", 5, "benchmark repetitions (minimum taken)")
	benchtime := flag.String("benchtime", "0.3s", "per-repetition benchmark time")
	flag.Parse()

	measured, err := runBenchmarks(*count, *benchtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceguard: %v\n", err)
		os.Exit(1)
	}
	if len(measured) == 0 {
		fmt.Fprintln(os.Stderr, "traceguard: no TraceOff benchmarks found")
		os.Exit(1)
	}
	simMeasured, err := runSimBenchmarks()
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceguard: %v\n", err)
		os.Exit(1)
	}
	if len(simMeasured) == 0 {
		fmt.Fprintln(os.Stderr, "traceguard: no deterministic sim benchmarks found")
		os.Exit(1)
	}

	if *update {
		all := map[string]float64{}
		for k, v := range measured {
			all[k] = v
		}
		for k, v := range simMeasured {
			all[k] = v
		}
		if err := writeBaseline(all); err != nil {
			fmt.Fprintf(os.Stderr, "traceguard: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("baseline %s updated:\n", baselineFile)
		for _, name := range sortedKeys(all) {
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
	for _, name := range sortedKeys(measured) {
		got := measured[name]
		want, ok := baseline[name]
		if !ok {
			fmt.Printf("NEW   %-42s %10.2f ns/op (no baseline; run -update)\n", name, got)
			failed = true
			continue
		}
		ratio := got / want
		status := "ok   "
		if ratio > 1+*tolerance {
			status = "SLOW "
			failed = true
		}
		fmt.Printf("%s %-42s %10.2f ns/op vs baseline %10.2f (%+.1f%%)\n",
			status, name, got, want, (ratio-1)*100)
	}
	// The simcycle metrics are deterministic: pin them exactly. An
	// improvement is not a failure, but the stale baseline is worth a nudge.
	for _, name := range sortedKeys(simMeasured) {
		got := simMeasured[name]
		want, ok := baseline[name]
		switch {
		case !ok:
			fmt.Printf("NEW   %-42s %10.2f (no baseline; run -update)\n", name, got)
			failed = true
		case got > want:
			fmt.Printf("SLOW  %-42s %10.2f vs baseline %10.2f\n", name, got, want)
			failed = true
		case got < want:
			fmt.Printf("FAST  %-42s %10.2f vs baseline %10.2f (run -update to lock in)\n", name, got, want)
		default:
			fmt.Printf("ok    %-42s %10.2f (exact)\n", name, got)
		}
	}
	// Sharper than the pins: a disabled observability plane must leave the
	// workload on the no-plane run's exact cycle, not merely under a ceiling.
	base, okB := simMeasured["BenchmarkObsPinned/base:simcycles/op"]
	dis, okD := simMeasured["BenchmarkObsPinned/disabled:simcycles/op"]
	if okB && okD && base != dis {
		fmt.Printf("COST  BenchmarkObsPinned: disabled plane not free (base %.2f vs disabled %.2f simcycles/op)\n",
			base, dis)
		failed = true
	}
	if failed {
		fmt.Fprintln(os.Stderr, "traceguard: cost contract violated (see lines above)")
		os.Exit(1)
	}
}

// runSimBenchmarks executes the deterministic benchmarks once — the URPC
// transport costs and the parallel-engine pinned workload at each worker
// count — and returns their simulated metrics keyed "BenchmarkName:unit".
// The engine benchmark doubles as a determinism gate: the w1/w2/w4
// sub-benchmarks replay the same pinned virtual-time window, so their
// simevents/op entries must stay equal to each other as well as to the
// baseline.
func runSimBenchmarks() (map[string]float64, error) {
	got := map[string]float64{}
	for _, run := range []struct{ bench, pkg string }{
		{"URPCPipelined|URPCOneHop|BulkTransfer", "./internal/urpc/"},
		{"ParallelEnginePinned", "./internal/sim/"},
		{"BootParallelPinned|DirectoryPinned", "./internal/expt/"},
		{"ObsPinned", "./internal/obs/"},
	} {
		cmd := exec.Command("go", "test", "-run=NONE",
			"-bench="+run.bench, "-benchtime=1x", run.pkg)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("%s benchmark run failed: %v\n%s", run.pkg, err, out)
		}
		sc := bufio.NewScanner(strings.NewReader(string(out)))
		for sc.Scan() {
			// "BenchmarkURPCPipelined   1   1142308 ns/op   204.7 simcycles/msg"
			// "BenchmarkParallelEnginePinned/w2   1   51 ms/op   121804 simevents/op"
			fields := strings.Fields(sc.Text())
			if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
				continue
			}
			name := strings.TrimSuffix(fields[0], "-"+lastCPUSuffix(fields[0]))
			for i := 3; i < len(fields); i++ {
				if !strings.HasPrefix(fields[i], "simcycles/") &&
					!strings.HasPrefix(fields[i], "simevents/") {
					continue
				}
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					continue
				}
				got[name+":"+fields[i]] = v
			}
		}
	}
	return got, nil
}

// runBenchmarks executes the TraceOff benchmarks and returns the minimum
// ns/op observed per benchmark name.
func runBenchmarks(count int, benchtime string) (map[string]float64, error) {
	cmd := exec.Command("go", "test", "-run=NONE", "-bench=TraceOff",
		"-count="+strconv.Itoa(count), "-benchtime="+benchtime, "./internal/sim/")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("benchmark run failed: %v\n%s", err, out)
	}
	min := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		// "BenchmarkTraceOffWake   258276   799.1 ns/op   0 B/op   0 allocs/op"
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		name := strings.TrimSuffix(fields[0], "-"+lastCPUSuffix(fields[0]))
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		if cur, ok := min[name]; !ok || ns < cur {
			min[name] = ns
		}
	}
	return min, nil
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
	b.WriteString("# across worker counts), pinned exactly — any increase fails CI.\n")
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(&b, "%s %.2f\n", name, m[name])
	}
	return os.WriteFile(baselineFile, []byte(b.String()), 0o644)
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
