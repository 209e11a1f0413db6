// Command mksim boots a multikernel on a simulated machine, runs a small
// demonstration workload (a domain spanning all cores performing mapped
// memory accesses, a coordinated unmap and a globally-agreed retype) and
// prints a boot/activity report.
//
// Usage:
//
//	mksim [-machine "4x4-core AMD"] [-trace] [-trace-json out.json]
//	      [-checkpoint boot.ckpt | -restore boot.ckpt]
//
// -checkpoint runs the boot to quiescence, saves the engine image to the
// named file and continues with the demo. -restore skips the simulated boot:
// the engine state is loaded from a previously saved image (which must have
// been taken on the same -machine) and only the demo workload is simulated.
package main

import (
	"flag"
	"fmt"
	"os"

	"multikernel"
	"multikernel/internal/caps"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/vm"
)

func main() {
	machine := flag.String("machine", "4x4-core AMD", "one of the paper's test platforms")
	dumpTrace := flag.Bool("trace", false, "print the structured event trace after the run")
	traceJSON := flag.String("trace-json", "", "write the trace as Chrome trace-event JSON (open in Perfetto)")
	ckptOut := flag.String("checkpoint", "", "save the booted engine image to this file before the demo")
	ckptIn := flag.String("restore", "", "warm-start from a saved boot image instead of simulating boot")
	flag.Parse()

	if *ckptOut != "" && *ckptIn != "" {
		fmt.Fprintln(os.Stderr, "mksim: -checkpoint and -restore are mutually exclusive")
		os.Exit(2)
	}

	m := topo.ByName(*machine)
	if m == nil {
		fmt.Fprintf(os.Stderr, "unknown machine %q; known machines:\n", *machine)
		for _, k := range topo.AllMachines() {
			fmt.Fprintf(os.Stderr, "  %s\n", k.Name)
		}
		os.Exit(2)
	}

	var rec *trace.Recorder
	if *dumpTrace || *traceJSON != "" {
		rec = trace.NewRecorder()
	}

	var e *sim.Engine
	var sys *multikernel.System
	if *ckptIn != "" {
		f, err := os.Open(*ckptIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mksim: %v\n", err)
			os.Exit(1)
		}
		e, err = sim.Restore(f, func(e *sim.Engine) {
			if rec != nil {
				e.SetTracer(rec)
			}
			sys = multikernel.Boot(e, m)
		})
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mksim: restoring %s (image must be from the same -machine): %v\n", *ckptIn, err)
			os.Exit(1)
		}
		fmt.Printf("restored multikernel boot image %s on %v (simulated boot skipped)\n", *ckptIn, m)
	} else {
		e = multikernel.NewEngine(1)
		if rec != nil {
			e.SetTracer(rec)
		}
		sys = multikernel.Boot(e, m)
		fmt.Printf("booted multikernel on %v\n", m)
		if *ckptOut != "" {
			e.Run() // boot to quiescence so the image is checkpointable
			f, err := os.Create(*ckptOut)
			if err == nil {
				err = e.Checkpoint(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mksim: writing boot image: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("boot image saved to %s (restore with -restore %s -machine %q)\n",
				*ckptOut, *ckptOut, m.Name)
		}
	}
	fmt.Printf("  %s\n", sys.KB)

	e.Spawn("init", func(p *sim.Proc) {
		cores := multikernel.AllCores(m)
		d, err := sys.NewDomain(p, "demo", cores)
		if err != nil {
			panic(err)
		}
		va, err := d.MapAnon(p, 0, 4*vm.PageSize, vm.Read|vm.Write)
		if err != nil {
			panic(err)
		}
		fmt.Printf("t=%-10d domain %q mapped 16KiB at va %#x\n", p.Now(), d.Name, uint64(va))

		for _, c := range cores {
			if _, err := d.Space.Access(p, c, va+vm.VAddr(8*int(c)), true, uint64(c)); err != nil {
				panic(err)
			}
		}
		fmt.Printf("t=%-10d all %d cores wrote through the shared address space\n", p.Now(), len(cores))

		start := p.Now()
		if err := d.Unmap(p, 0, va, vm.PageSize, monitor.NUMAAware); err != nil {
			panic(err)
		}
		fmt.Printf("t=%-10d coordinated unmap of one page took %d cycles (%0.f ns)\n",
			p.Now(), p.Now()-start, m.Nanoseconds(p.Now()-start))
		sys.VM.CheckNoStaleTLB(d.Space.ID, va, vm.PageSize)
		fmt.Println("             no stale TLB entries anywhere: shootdown verified")

		reg := sys.Mem.Alloc(4096, 0)
		start = p.Now()
		ok := sys.GlobalRetype(p, 0, reg.Base, reg.Bytes, caps.Frame, 0)
		fmt.Printf("t=%-10d global retype (2PC across %d cores): committed=%v in %d cycles\n",
			p.Now(), len(cores), ok, p.Now()-start)
		if err := sys.CheckCapConsistency(); err != nil {
			panic(err)
		}
		fmt.Println("             capability replicas consistent on all cores")
	})
	e.Run()

	fmt.Println("\nper-monitor activity:")
	for _, c := range multikernel.AllCores(m)[:4] {
		st := sys.Net.Monitor(c).Stats()
		fmt.Printf("  monitor%-2d handled=%d initiated=%d commits=%d\n", c, st.Handled, st.Initiated, st.Commits)
	}
	fmt.Printf("interconnect traffic: %d dwords total\n", sys.Fabric.TotalDwords())
	if *dumpTrace {
		fmt.Printf("\nstructured trace (%d events):\n%s", rec.Len(), rec.TextDump())
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err == nil {
			err = trace.WriteJSON(f, rec)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *traceJSON, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events)\n", *traceJSON, rec.Len())
	}
	e.Close()
}
