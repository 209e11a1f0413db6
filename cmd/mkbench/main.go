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
// Experiments: fig3 tab1 tab2 tab3 fig6 fig7 fig8 tab4 fig9 sec54 poll
// ablations extensions faults kvfault obs coherence urpcv2 sim boot, or
// "all" (the default).
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
// With -json, headline metrics (the last point of every figure series, per-
// experiment and total wall-clock seconds, and the parallelism used) are
// written to the named file as one JSON object; a "metrics" section carries
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
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"multikernel/internal/expt"
	"multikernel/internal/harness"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
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
	faultsOnly := flag.Bool("faults", false, "shorthand for the faults experiment")
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

	iters := 10
	webWindow := sim.Time(40_000_000)
	packets := 400
	fig9Scale := 1.0
	simScale := 4000
	simPoints := 8
	bootScale := 24
	cohIncs, cohMaxCores := 6, 1024
	if *quick {
		iters = 3
		webWindow = 10_000_000
		packets = 120
		fig9Scale = 0.25
		simScale = 600
		simPoints = 4
		bootScale = 6
		cohIncs, cohMaxCores = 3, 256
	}

	pw, ph := 0, 0
	if *plot {
		pw, ph = 72, 18
	}

	headline := map[string]float64{}
	// figMetrics records the last point of every series of f under keys
	// "<expt>.<series>@<x>" — the headline scaling numbers.
	figMetrics := func(name string, f *stats.Figure) {
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				continue
			}
			last := s.Points[len(s.Points)-1]
			headline[fmt.Sprintf("%s.%s@%g", name, s.Name, last.X)] = last.Y
		}
	}
	showFig := func(name string, f *stats.Figure) {
		figMetrics(name, f)
		fmt.Println(stats.RenderFigure(f, pw, ph))
	}
	showTab := func(t *stats.Table) {
		fmt.Println(t.Render())
	}

	experiments := []struct {
		name string
		run  func()
	}{
		{"fig3", func() { showFig("fig3", expt.Fig3(iters)) }},
		{"tab1", func() { showTab(expt.Table1(24)) }},
		{"tab2", func() { showTab(expt.Table2(iters)) }},
		{"tab3", func() { showTab(expt.Table3(iters)) }},
		{"fig6", func() { showFig("fig6", expt.Fig6(iters)) }},
		{"fig7", func() { showFig("fig7", expt.Fig7(max(2, iters/2))) }},
		{"fig8", func() { showFig("fig8", expt.Fig8(max(2, iters/2))) }},
		{"tab4", func() { showTab(expt.Table4()) }},
		{"fig9", func() {
			for _, f := range expt.Fig9(fig9Scale) {
				showFig("fig9", f)
			}
		}},
		{"sec54", func() { showTab(expt.Sec54(packets, webWindow)) }},
		{"poll", func() { showTab(expt.PollModel(6000)) }},
		{"ablations", func() {
			showTab(expt.AblationPrefetch(iters))
			showTab(expt.AblationShootdownProtocols(max(2, iters/2)))
			showTab(expt.AblationPipelineDepth(max(2, iters/2)))
			showTab(expt.AblationPollWindow())
		}},
		{"extensions", func() {
			showFig("ext-scale", expt.ExtScaling(max(2, iters/2)))
			showTab(expt.ExtSharedReplica(max(2, iters/2)))
			showTab(expt.ExtRunQueue(40))
		}},
		{"faults", func() {
			lat, thr := expt.FaultRecovery(*faultSeed, 2*iters)
			showFig("faults-latency", lat)
			showFig("faults-throughput", thr)
		}},
		{"kvfault", func() {
			lat, thr, tab := expt.KVFault(*faultSeed)
			showFig("kvfault-latency", lat)
			showFig("kvfault-throughput", thr)
			showTab(tab)
		}},
		{"obs", func() {
			res := expt.Obs(*faultSeed)
			showTab(res.Tab)
			headline["obs.zero_overhead_disabled"] = b2f(res.ZeroOverhead)
			headline["obs.sampling_client_delta_cycles"] = res.SamplingDelta
			headline["obs.fidelity_exact"] = b2f(res.FidelityExact)
			headline["obs.detect_cycles"] = res.DetectLat
			headline["obs.detect_bound_cycles"] = res.DetectBound
			headline["obs.detect_within_bound"] = b2f(res.WithinBound)
			headline["obs.windows"] = float64(res.Windows)
			headline["obs.msgs_per_window"] = round3(res.MsgsPerWindow)
			headline["obs.store_hash32"] = float64(res.StoreHash)
		}},
		{"coherence", func() {
			res := expt.Coherence(cohIncs, cohMaxCores)
			showFig("coherence", res.Fig)
			showTab(res.Tab)
			headline["coherence.crossover_cores"] = float64(res.Crossover)
			headline["coherence.broadcast_cycles"] = round3(res.BcastCycles)
			headline["coherence.directory_cycles"] = round3(res.DirCycles)
			headline["coherence.fanout_broadcast"] = round3(res.FanoutBcast)
			headline["coherence.fanout_directory"] = round3(res.FanoutDir)
			headline["coherence.sharer_bound"] = res.SharerBound
			headline["coherence.torus_gain"] = round3(res.TorusGain)
			headline["coherence.sums_ok"] = b2f(res.SumsOK)
		}},
		{"urpcv2", func() {
			showFig("urpcv2-depth", expt.URPCv2Depth(30*iters))
			showFig("urpcv2-size", expt.URPCv2Size(3*iters))
			showTab(expt.URPCv2Table(30 * iters))
		}},
		{"boot", func() {
			rows := expt.BootParallelBench(bootScale, []int{2, 4})
			showTab(expt.BootBenchTable(rows))
			identical := true
			for _, r := range rows {
				key := fmt.Sprintf("boot.%s.w%d", r.Workload, r.Workers)
				headline[key+".seconds"] = round3(r.Seconds)
				headline[key+".speedup"] = round3(r.Speedup)
				headline[key+".sim_events"] = float64(r.SimEvents)
				identical = identical && r.Identical
			}
			headline["boot.identical"] = b2f(identical)
			// The honest caveat the speedup claim depends on: wall-clock gains
			// need as many idle host cores as workers; byte identity does not.
			headline["boot.runner_cores"] = float64(runtime.NumCPU())
		}},
		{"sim", func() {
			res := expt.EngineBench(simScale, []int{2, 4, 8})
			showTab(expt.EngineBenchTable(res))
			identical := true
			for _, r := range res {
				headline[fmt.Sprintf("sim.events_per_sec.w%d", r.Workers)] = round3(r.EventsPerSec)
				headline[fmt.Sprintf("sim.speedup.w%d", r.Workers)] = round3(r.Speedup)
				identical = identical && r.Identical
			}
			headline["sim.events"] = float64(res[0].Events)
			headline["sim.identical"] = b2f(identical)

			wt, wres := expt.WarmStart(simPoints, bootImg)
			showTab(wt)
			headline["sim.cold_seconds"] = round3(wres.ColdSeconds)
			headline["sim.warm_seconds"] = round3(wres.WarmSeconds)
			headline["sim.boot_image_bytes"] = float64(wres.ImageBytes)
			headline["sim.warm_identical"] = b2f(wres.Identical)
		}},
	}

	wants := flag.Args()
	if *faultsOnly {
		wants = append(wants, "faults")
	}
	if len(wants) == 0 {
		wants = []string{"all"}
	}
	known := func(name string) bool {
		for _, ex := range experiments {
			if ex.name == name {
				return true
			}
		}
		return name == "all"
	}
	for _, w := range wants {
		if !known(w) {
			var names []string
			for _, ex := range experiments {
				names = append(names, ex.name)
			}
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from: %s all\n",
				w, strings.Join(names, " "))
			os.Exit(2)
		}
	}
	want := func(name string) bool {
		for _, w := range wants {
			if w == name || w == "all" {
				return true
			}
		}
		return false
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
	exptMetrics := map[string]metrics.Snapshot{}
	start := time.Now()
	for _, ex := range experiments {
		if !want(ex.name) {
			continue
		}
		t0 := time.Now()
		metrics.StartCapture()
		ex.run()
		exptMetrics[ex.name] = metrics.TakeCapture()
		headline["wall_seconds."+ex.name] = round3(time.Since(t0).Seconds())
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

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
