// Command mkperf is the repository's performance benchmark. It drives four
// closed-loop workloads through the simulator and reports both of its
// clocks: virtual cycles, which are what the model claims about a
// multikernel, and host time, which is how fast the simulator produces those
// claims. Every run reports end-to-end metrics; a traced run adds per-layer
// attribution (see README.md for the metric catalogue).
//
// Usage:
//
//	mkperf --workload unmap32 --seed 3 --seconds 10 --trace 0
//	    one run of one workload in this process. Prints "metric unit value"
//	    lines and, as the last line, {"correct", "attempted", "failed",
//	    "metrics"}: the end-to-end metrics, or with --trace 1 the per-layer
//	    metrics.
//
//	mkperf [-runs n] [-seed s] [-trace 1] [-json set.json]
//	    every workload, each run in its own child process, seeds s..s+n-1.
//	    Prints a table and writes the set (with runner metadata) to -json.
//
//	mkperf compare A.json B.json
//	    per (workload, metric): medians and quartiles of both sets, the
//	    paired win fraction, and whether B stays within the metric's bound.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: mkperf compare A.json B.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, os.Args[2], os.Args[3])
		if err != nil {
			fmt.Fprintln(os.Stderr, "mkperf:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(3)
		}
		return
	}

	fs := flag.NewFlagSet("mkperf", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs (engine RNG and key streams)")
	seconds := fs.Int("seconds", 10, "host seconds to measure for (the fixed virtual window always completes)")
	traceFlag := fs.Int("trace", 0, "1 adds a traced pass that reports the per-layer metrics")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, seeds seed..seed+runs-1")
	jsonOut := fs.String("json", "", "with -workload all: write the set of run records to this file")
	record := fs.Bool("record", false, "end with the full run record instead of the summary line (child mode)")
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mkperf: unexpected argument %q\n", fs.Arg(0))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "mkperf: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "mkperf: -seconds must be >= 0 and -runs >= 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: float64(*seconds), traced: *traceFlag == 1, scale: 1, setups: defaultSetups}

	if *name == "all" {
		if err := runAll(cfg, *runs, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "mkperf:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "mkperf: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rec := run(w, cfg)
	printRecord(os.Stdout, rec)
	var last []byte
	var err error
	if *record {
		last, err = json.Marshal(rec)
	} else {
		last, err = json.Marshal(summaryOf(rec))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mkperf:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", last)
}

// summary is the one-line result: the metrics BENCHMARK.json names for the
// run's mode, as {value, unit} pairs.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func summaryOf(r *Record) summary {
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryItem{}}
	for _, sp := range specs {
		s.Metrics[sp.name] = summaryItem{Value: r.Metrics[sp.name].Value, Unit: sp.unit}
	}
	return s
}

// printRecord writes one "metric unit value" line per metric, end-to-end
// metrics first, then the extras, then the per-layer metrics.
func printRecord(w io.Writer, r *Record) {
	fmt.Fprintf(w, "workload %s seed %d traced %v GOMAXPROCS %d correct %v attempted %d failed %d\n",
		r.Workload, r.Seed, r.Traced, r.GoMaxProcs, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "fixed window %d slices in %.3f host s; %d slices measured\n", nSlices, r.WindowS, r.Slices)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
	for _, name := range metricOrder(r.Metrics) {
		m := r.Metrics[name]
		if m.N > 0 {
			fmt.Fprintf(w, "%-28s %-7s %.6g (n=%d)\n", name, m.Unit, m.Value, m.N)
		} else {
			fmt.Fprintf(w, "%-28s %-7s %.6g\n", name, m.Unit, m.Value)
		}
	}
}

// metricOrder lists names in catalogue order (end-to-end, extras, per-layer),
// then anything else alphabetically.
func metricOrder(ms map[string]Metric) []string {
	var out []string
	seen := map[string]bool{}
	for _, sp := range allSpecs() {
		if _, ok := ms[sp.name]; ok {
			out = append(out, sp.name)
			seen[sp.name] = true
		}
	}
	var rest []string
	for name := range ms {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Set is a file of run records plus the runner they were measured on.
type Set struct {
	RunnerCores int      `json:"runner_cores"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	Seconds     float64  `json:"seconds"`
	Runs        []Record `json:"runs"`
}

// runAll runs every workload runs times, each run in a child process of this
// binary so that peak RSS is per run, and one process at a time so that runs
// never compete for the host.
func runAll(cfg config, runs int, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	set := Set{
		RunnerCores: runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Seconds:     cfg.seconds,
	}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	allOK := true
	for i := 0; i < runs; i++ {
		seed := cfg.seed + uint64(i)
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(int(cfg.seconds)), "-trace", trace, "-record"}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s seed %d: %w", w.name, seed, err)
			}
			rec, err := lastRecord(out.Bytes())
			if err != nil {
				return fmt.Errorf("workload %s seed %d: %w", w.name, seed, err)
			}
			allOK = allOK && rec.Correct
			set.Runs = append(set.Runs, *rec)
			fmt.Printf("%-8s seed %-3d correct %-5v", rec.Workload, rec.Seed, rec.Correct)
			for _, sp := range endToEnd {
				if m, ok := rec.Metrics[sp.name]; ok {
					fmt.Printf("  %s %.4g %s", sp.name, m.Value, sp.unit)
				}
			}
			fmt.Println()
		}
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !allOK {
		return fmt.Errorf("a run failed its output checks")
	}
	return nil
}

// lastRecord parses the run record a child prints as its last line.
func lastRecord(out []byte) (*Record, error) {
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var rec Record
	if err := json.Unmarshal(last, &rec); err != nil {
		return nil, fmt.Errorf("parse child record: %w", err)
	}
	return &rec, nil
}

// commit returns the VCS revision stamped into the binary, or "unknown" (a
// build outside a git checkout, or with -buildvcs=false).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
