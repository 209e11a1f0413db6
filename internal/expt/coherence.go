package expt

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/harness"
	"multikernel/internal/interconnect"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file holds the coherence-crossover experiment (mkbench coherence):
// the paper's core scalability argument (§2.1) measured on the scaled
// machine models. A contended read-write workload runs on meshes from 16 to
// 1024 cores under both coherence modes of the cache model — broadcast
// snooping, whose upgrade cost grows with the socket count because every
// remote socket's tag filter must answer, and directory coherence, which
// pays a flat home-node lookup and probes only actual sharers. The sweep
// reports mean RMW latency and mean probe fan-out per mode and locates the
// core count where directory overtakes broadcast; torus rows at the largest
// sizes show what halving the network diameter buys on top. Each point is a
// hermetic seeded engine run built directly over the hardware models (no
// SKB: populating the all-pairs latency table is quadratic in cores and
// irrelevant here), so the sweep is byte-identical at any -parallel.

const (
	cohSeed = 7
	// cohReadDeg remote sockets share each published line. Small and fixed:
	// the point of the directory is that probe fan-out tracks the actual
	// sharer count, not the machine size.
	cohReadDeg = 4
	// Inter-op gaps (coprime-ish so writers and readers drift apart): the
	// workload must stay mostly uncontended, because a queued requester
	// receives the line as a pipelined handoff at a mode-independent cost —
	// convoys would average the snoop-vs-directory delta away.
	cohWriteGap = 2600
	cohReadGap  = 1900
)

// cohMachine is one machine of the sweep; mesh rows form the crossover
// series, torus rows are diameter ablations at matching socket counts.
type cohMachine struct {
	m    *topo.Machine
	mesh bool
}

// cohRun is one hermetic (machine, mode) measurement.
type cohRun struct {
	cyclesPerOp float64 // mean writer RMW latency
	fanoutMean  float64 // mean cache.probe_fanout observation
	ops         uint64
	sumsOK      bool // every contended line summed to writers*incs
}

// coherenceRun drives a read-mostly publishing workload: every socket owns
// one line homed locally, its writer RMW-increments it incs times, and the
// readers of the next cohReadDeg sockets keep re-filling it in between. Each
// increment therefore upgrades a genuinely shared line — broadcast pays the
// per-remote-socket snoop serialization, directory a flat lookup plus probes
// to the few actual sharers — while write-write convoys (whose pipelined
// handoffs cost the same in either mode) stay rare.
func coherenceRun(seed uint64, m *topo.Machine, mode cache.CoherenceMode, incs int) cohRun {
	e := sim.NewEngine(seed)
	defer e.Close()
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	sys.SetMode(mode)
	return runCoherence(e, sys, incs)
}

// runCoherence runs the publishing workload, then sums its lines, on an
// already-configured system. Split from coherenceRun so BenchmarkDirectoryPinned
// can read the run's engine and fabric afterwards.
func runCoherence(e *sim.Engine, sys *cache.System, incs int) cohRun {
	var res cohRun
	var latSum sim.Time
	lines := spawnCohWorkload(e, sys, incs, &res, &latSum)
	e.Run()
	e.CheckQuiesced()

	res.sumsOK = true
	e.Spawn("cohck", func(p *sim.Proc) {
		for _, a := range lines {
			if sys.Load(p, 0, a) != uint64(incs) {
				res.sumsOK = false
			}
		}
	})
	e.Run()
	e.CheckQuiesced()

	res.cyclesPerOp = float64(latSum) / float64(res.ops)
	res.fanoutMean = e.Metrics().Histogram("cache.probe_fanout").Mean()
	return res
}

// spawnCohWorkload spawns the publishing workload's writer and reader procs
// on an already-configured system and returns the published lines. Split
// from coherenceRun so the oracle test can run the identical workload with a
// MOESI checker audited onto the cache.
func spawnCohWorkload(e *sim.Engine, sys *cache.System, incs int, res *cohRun, latSum *sim.Time) []memory.Addr {
	m := sys.Machine()
	ns := m.NSockets
	deg := cohReadDeg
	if deg > ns-1 {
		deg = ns - 1
	}
	lines := make([]memory.Addr, ns)
	for s := range lines {
		lines[s] = sys.Memory().AllocLines(1, topo.SocketID(s)).LineAt(0)
	}

	for w := 0; w < ns; w++ {
		w := w
		wc := topo.CoreID(w * m.CoresPerSocket)
		rc := wc + 1
		e.Spawn(fmt.Sprintf("cohw%d", w), func(p *sim.Proc) {
			for i := 0; i < incs; i++ {
				t0 := p.Now()
				sys.RMW(p, wc, lines[w], func(v uint64) uint64 { return v + 1 })
				*latSum += p.Now() - t0
				res.ops++
				p.Sleep(cohWriteGap)
			}
		})
		e.Spawn(fmt.Sprintf("cohr%d", w), func(p *sim.Proc) {
			for i := 0; i < incs; i++ {
				for d := 1; d <= deg; d++ {
					sys.Load(p, rc, lines[(w+d)%ns])
				}
				p.Sleep(cohReadGap)
			}
		})
	}
	return lines
}

var cohModes = [2]cache.CoherenceMode{cache.Broadcast, cache.Directory}

// Coherence sweeps contended RMW latency across mesh sizes under both
// coherence modes. incs scales the per-writer work; machines with more than
// maxCores cores are dropped (the -quick bound). The headline reports the
// crossover and, at the largest mesh swept, both modes' cycles and fan-out.
func Coherence(incs, maxCores int) Result {
	var ms []cohMachine
	for _, k := range []int{2, 3, 4, 6, 8, 12, 16} {
		ms = append(ms, cohMachine{topo.Mesh(k), true})
	}
	for _, k := range []int{8, 16} {
		ms = append(ms, cohMachine{topo.Torus(k), false})
	}
	n := 0
	for _, cm := range ms {
		if cm.m.NumCores() <= maxCores {
			ms[n] = cm
			n++
		}
	}
	ms = ms[:n]

	rs := harness.Map2(len(ms), len(cohModes), func(r, c int) cohRun {
		return coherenceRun(cohSeed, ms[r].m, cohModes[c], incs)
	})

	fig := newFigure("coherence", "Contended RMW latency: broadcast snoop vs directory coherence",
		"cores", "cycles per RMW")
	bc := fig.AddSeries("broadcast")
	dc := fig.AddSeries("directory")
	tab := &table{
		Title: "Coherence-mode crossover on scaled machines (per-socket published line, 4 remote readers)",
		Columns: []string{"machine", "cores", "bcast cy/op", "dir cy/op", "winner",
			"bcast fanout", "dir fanout", "sockets-1", "sums"},
	}
	// The crossover is the core count of the smallest mesh where directory
	// coherence beats broadcast (0 if it never does). With the scaled cost
	// parameters (SnoopPerSocket 4, DirLookup 52) the analytic break-even
	// sits between 9 and 16 sockets, so the measured value lands on the
	// 64-core Mesh(4).
	crossover, sumsOK := 0, true
	lastMesh := -1
	torus := map[int]float64{} // broadcast cycles/op by socket count
	for i, cm := range ms {
		b, d := rs[i][0], rs[i][1]
		cores := cm.m.NumCores()
		winner := "broadcast"
		if d.cyclesPerOp < b.cyclesPerOp {
			winner = "directory"
		}
		if cm.mesh {
			bc.Add(float64(cores), b.cyclesPerOp)
			dc.Add(float64(cores), d.cyclesPerOp)
			if winner == "directory" && crossover == 0 {
				crossover = cores
			}
			lastMesh = i
		} else {
			torus[cm.m.NSockets] = b.cyclesPerOp
		}
		sumsOK = sumsOK && b.sumsOK && d.sumsOK
		tab.AddRow(cm.m.Name,
			fmt.Sprintf("%d", cores),
			fmt.Sprintf("%.1f", b.cyclesPerOp),
			fmt.Sprintf("%.1f", d.cyclesPerOp),
			winner,
			fmt.Sprintf("%.2f", b.fanoutMean),
			fmt.Sprintf("%.2f", d.fanoutMean),
			fmt.Sprintf("%d", cm.m.NSockets-1),
			fmt.Sprintf("%v", b.sumsOK && d.sumsOK))
	}
	h := map[string]float64{
		"coherence.crossover_cores": float64(crossover),
		"coherence.sums_ok":         b2f(sumsOK),
	}
	if lastMesh >= 0 {
		cm := ms[lastMesh]
		b, d := rs[lastMesh][0], rs[lastMesh][1]
		h["coherence.broadcast_cycles"] = b.cyclesPerOp
		h["coherence.directory_cycles"] = d.cyclesPerOp
		// Broadcast probes every remote socket, so its fan-out equals the
		// sharer bound (NSockets-1); the directory probes actual sharers.
		h["coherence.fanout_broadcast"] = b.fanoutMean
		h["coherence.fanout_directory"] = d.fanoutMean
		h["coherence.sharer_bound"] = float64(cm.m.NSockets - 1)
		// Torus gain: broadcast cycles/op on the largest mesh over the
		// same-size torus — what the wraparound links' shorter routes save.
		var gain float64
		if tc, ok := torus[cm.m.NSockets]; ok && tc > 0 {
			gain = b.cyclesPerOp / tc
		}
		h["coherence.torus_gain"] = gain
	}
	return Result{Figures: []*figure{fig}, Tables: []*table{tab}, Headline: h}
}
