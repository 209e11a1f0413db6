// Command mkbench regenerates the tables and figures of the paper's
// evaluation on the simulated machines and prints them in the paper's
// layout.
//
// Usage:
//
//	mkbench [-quick] [-parallel N] [-json file] [-trace file]
//	        [-checkpoint file] [-restore file] [-cpuprofile file] [-memprofile file]
//	        [-fault-seed N] [experiment ...]
//
// Experiments are the entries of expt.Experiments, in catalogue order: fig3
// tab1 tab2 tab3 fig6 fig7 fig8 tab4 fig9 sec54 poll ablations extensions
// faults kvfault obs coherence urpcv2 boot sim, or "all" (the default). Each
// prints its figures, then its tables.
//
// The obs experiment re-runs the kvcluster fail-over scenario with the
// distributed observability plane (internal/obs) at a sweep of sampling
// intervals: client completion cycles with the plane absent, disabled
// (must match absent exactly) and live, the plane's message volume per
// committed window, exact counter fidelity, and the health monitor's
// kill-to-degraded-event latency against its documented bound.
//
// The coherence experiment measures the paper's §2.1 scalability argument
// on the scaled machine models: a read-mostly publishing workload swept
// across 16–1024-core meshes under broadcast-snoop and directory coherence,
// reporting mean RMW cycles, mean probe fan-out per mode (the directory's
// is bounded by the true sharer count, broadcast's by the socket count) and
// the core count where directory overtakes broadcast, with torus rows
// showing the diameter ablation at the largest sizes.
//
// The urpcv2 experiment sweeps the v2 transport: pipelined throughput
// against sender in-flight depth 1→16, the ring-vs-bulk crossover for
// payloads of 1→64 cache lines, and a Table 2-style per-hop cost table
// (stop-and-wait, fully pipelined, and bulk per-line) across all machines.
//
// The faults experiment drives coordinated operations through seeded fault
// schedules (fail-stop cores, degraded links, cache stalls) with monitor
// fault tolerance enabled, reporting recovery latency and degraded-mode
// throughput against the fault rate; -fault-seed selects the schedule
// family.
//
// The sim experiment benchmarks the engine itself: event throughput of the
// serial reference engine against per-socket sub-engines at 2/4/8 workers,
// with byte-identity of the final engine image checked against the serial
// run, and a warm-start comparison of a boot-per-point sweep against a
// boot-once/restore-per-point sweep. -checkpoint saves that boot image to a file; -restore feeds a saved
// image back in, so a later run skips simulated boot entirely.
//
// The boot experiment puts the whole multikernel on the parallel engine:
// core.BootParallel on the 8x4-core AMD machine (one replica per socket),
// driven through shootdown-storm, web+database and replicated-kvcluster
// workloads at 1/2/4 workers, reporting wall-clock speedup and byte
// identity of traces, merged metrics and the parallel checkpoint image
// against the workers=1 run. The JSON records boot.runner_cores because
// speedup needs idle host cores; identity does not.
//
// Independent experiment points run across a pool of -parallel worker
// threads (default GOMAXPROCS); output is byte-identical to -parallel 1
// because every point is a hermetic, seed-deterministic engine run and
// results are collected in deterministic order.
//
// -cpuprofile and -memprofile write pprof profiles of the whole run.
//
// With -json, headline metrics (the last point of every figure series under
// the figure's key, each experiment's own headline numbers, per-experiment
// and total wall-clock seconds, and the parallelism used) are written to the
// named file as one JSON object; a "metrics" section carries
// each experiment's merged subsystem registry snapshot (URPC traffic, cache
// coherence counters, per-link interconnect dwords, monitor agreement stats,
// latency histograms), so successive runs can be diffed to track the
// performance trajectory.
//
// With -trace, every engine in the sweep records a structured event trace and
// the merged capture is written as Chrome trace-event JSON, loadable in
// Perfetto (or chrome://tracing): one process per experiment point, one
// thread per core, with flow arrows linking URPC sends to receives. The
// export is byte-identical at any -parallel setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"multikernel/internal/expt"
	"multikernel/internal/harness"
	"multikernel/internal/metrics"
	"multikernel/internal/stats"
	"multikernel/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "run shortened parameter sweeps")
	plot := flag.Bool("plot", true, "render ASCII plots for figures")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"number of experiment points to run concurrently (1 = serial)")
	jsonOut := flag.String("json", "", "write headline metrics to this file as a flat JSON object")
	traceOut := flag.String("trace", "", "write a Perfetto-loadable Chrome trace of every engine run to this file")
	faultSeed := flag.Uint64("fault-seed", 42, "seed family for the faults experiment's schedules")
	ckptOut := flag.String("checkpoint", "", "write the warm-start boot image to this file")
	ckptIn := flag.String("restore", "", "warm-start the sim experiment's sweep from this saved boot image")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	harness.SetParallelism(*parallel)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mkbench: %v\n", err)
				return
			}
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mkbench: writing heap profile: %v\n", err)
			}
		}()
	}

	// The warm-start boot image: -checkpoint boots once and saves it,
	// -restore supplies one saved earlier; either way the sim experiment's
	// warm sweep starts from it instead of simulating boot.
	var bootImg []byte
	if *ckptOut != "" {
		bootImg = expt.BootImage(expt.WarmStartMachine())
		if err := os.WriteFile(*ckptOut, bootImg, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: writing boot image: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "boot image for %s (%d bytes) written to %s\n",
			expt.WarmStartMachine().Name, len(bootImg), *ckptOut)
	}
	if *ckptIn != "" {
		b, err := os.ReadFile(*ckptIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: reading boot image: %v\n", err)
			os.Exit(1)
		}
		bootImg = b
	}

	pw, ph := 0, 0
	if *plot {
		pw, ph = 72, 18
	}
	cfg := expt.Config{Quick: *quick, FaultSeed: *faultSeed, BootImage: bootImg}

	wants := flag.Args()
	if len(wants) == 0 {
		wants = []string{"all"}
	}
	want := func(name string) bool {
		return slices.Contains(wants, name) || slices.Contains(wants, "all")
	}
	var names []string
	for _, ex := range expt.Experiments {
		names = append(names, ex.Name)
	}
	for _, w := range wants {
		if w != "all" && !slices.Contains(names, w) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from: %s all\n",
				w, strings.Join(names, " "))
			os.Exit(2)
		}
	}

	if *traceOut != "" {
		// Engines created inside the capture window attach recorders and
		// contribute their events at Close; the merged export below is
		// byte-identical at any -parallel setting.
		trace.StartCapture()
	}

	// Every experiment runs inside its own metrics capture window: engines
	// snapshot their registry (URPC, cache, interconnect, monitor, fault
	// counters and histograms) at Close, and the per-experiment merge lands
	// in the JSON output's "metrics" section.
	headline := map[string]float64{}
	exptMetrics := map[string]metrics.Snapshot{}
	start := time.Now()
	for _, ex := range expt.Experiments {
		if !want(ex.Name) {
			continue
		}
		t0 := time.Now()
		metrics.StartCapture()
		res := ex.Run(cfg)
		exptMetrics[ex.Name] = metrics.TakeCapture()
		for _, f := range res.Figures {
			// The last point of every series: the headline scaling numbers.
			for _, s := range f.Series {
				if n := len(s.Points); n > 0 {
					headline[fmt.Sprintf("%s.%s@%g", f.Key, s.Name, s.Points[n-1].X)] = s.Points[n-1].Y
				}
			}
			fmt.Println(stats.RenderFigure(f, pw, ph))
		}
		for _, t := range res.Tables {
			fmt.Println(t.Render())
		}
		maps.Copy(headline, res.Headline)
		headline["wall_seconds."+ex.Name] = round3(time.Since(t0).Seconds())
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteCaptured(f)
		}
		trace.StopCapture()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: writing trace %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceOut)
	}

	if *jsonOut != "" {
		headline["wall_seconds_total"] = round3(time.Since(start).Seconds())
		headline["parallel"] = float64(harness.Parallelism())
		out := map[string]any{"metrics": exptMetrics}
		for k, v := range headline {
			out[k] = v
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: encoding metrics: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mkbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
	}
}

func round3(s float64) float64 { return float64(int64(s*1000+0.5)) / 1000 }
