package expt

import (
	"multikernel/internal/baseline"
	"multikernel/internal/caps"
	"multikernel/internal/core"
	"multikernel/internal/harness"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/vm"
)

// Fig6 regenerates Figure 6: raw messaging costs of the four TLB-shootdown
// protocols on the 8×4-core AMD system, 2..32 cores. Each (protocol, cores)
// point is a hermetic engine run, so the sweep fans out across the harness
// worker pool.
func Fig6(iters int) *figure {
	m := topo.AMD8x4()
	f := newFigure("fig6", "Figure 6: TLB shootdown protocols, raw messaging ("+m.Name+")",
		"cores", "latency (cycles)")
	protos := []struct {
		name  string
		proto monitor.Protocol
	}{
		{"Broadcast", monitor.Broadcast},
		{"Unicast", monitor.Unicast},
		{"Multicast", monitor.Multicast},
		{"NUMA-Aware Multicast", monitor.NUMAAware},
	}
	ns := sweepCores(2, 32)
	pts := harness.Map2(len(protos), len(ns), func(pi, ni int) float64 {
		return monitor.RawShootdownLatency(m, protos[pi].proto, ns[ni], iters)
	})
	for pi, pr := range protos {
		s := f.AddSeries(pr.name)
		for ni, n := range ns {
			s.Add(float64(n), pts[pi][ni])
		}
	}
	return f
}

// UnmapLatencyBF measures the complete Barrelfish unmap (Figure 7): LRPC to
// the local monitor, NUMA-aware multicast shootdown with per-core TLB
// invalidation, LRPC reply.
func UnmapLatencyBF(m *topo.Machine, n, iters int) float64 {
	return unmapLatencyProto(m, n, iters, monitor.NUMAAware)
}

// unmapLatencyProto is unmapLatencyBF with a selectable dissemination
// protocol (used by the protocol ablation).
func unmapLatencyProto(m *topo.Machine, n, iters int, proto monitor.Protocol) float64 {
	e := sim.NewEngine(1)
	defer e.Close()
	s := core.Boot(e, m)
	var total sim.Time
	e.Spawn("bench", func(p *sim.Proc) {
		cores := make([]topo.CoreID, n)
		for i := range cores {
			cores[i] = topo.CoreID(i)
		}
		d, err := s.NewDomain(p, "bench", cores)
		if err != nil {
			panic(err)
		}
		for it := 0; it < iters+1; it++ {
			va, err := d.MapAnon(p, 0, vm.PageSize, vm.Read|vm.Write)
			if err != nil {
				panic(err)
			}
			for _, c := range cores {
				d.Space.Access(p, c, va, false, 0)
			}
			start := p.Now()
			if err := d.Unmap(p, 0, va, vm.PageSize, proto); err != nil {
				panic(err)
			}
			if it > 0 { // discard the cold round
				total += p.Now() - start
			}
		}
	})
	e.Run()
	e.CheckQuiesced()
	return float64(total) / float64(iters)
}

// unmapLatencyBaseline measures the monolithic comparator's serial-IPI unmap.
func unmapLatencyBaseline(m *topo.Machine, flavor baseline.Flavor, n, iters int) float64 {
	env := NewEnv(m, 1)
	defer env.Close()
	k := baseline.New(env.E, env.Sys, env.Kern, flavor)
	var total sim.Time
	env.E.Spawn("bench", func(p *sim.Proc) {
		targets := env.Cores(n)
		k.Unmap(p, 0, targets) // warm
		for it := 0; it < iters; it++ {
			start := p.Now()
			k.Unmap(p, 0, targets)
			total += p.Now() - start
		}
	})
	env.run()
	return float64(total) / float64(iters)
}

// Fig7 regenerates Figure 7: end-to-end unmap latency, Barrelfish versus
// Linux and Windows, on the 8×4-core AMD system. Each (system, cores) point
// runs on its own engine, parallelized across the harness pool.
func Fig7(iters int) *figure {
	m := topo.AMD8x4()
	f := newFigure("fig7", "Figure 7: unmap latency ("+m.Name+")", "cores", "latency (cycles)")
	systems := []struct {
		name string
		run  func(n int) float64
	}{
		{"Linux", func(n int) float64 { return unmapLatencyBaseline(m, baseline.Linux, n, iters) }},
		{"Windows", func(n int) float64 { return unmapLatencyBaseline(m, baseline.Windows, n, iters) }},
		{"Barrelfish", func(n int) float64 { return UnmapLatencyBF(m, n, iters) }},
	}
	ns := sweepCores(2, 32)
	pts := harness.Map2(len(systems), len(ns), func(si, ni int) float64 {
		return systems[si].run(ns[ni])
	})
	for si, sys := range systems {
		s := f.AddSeries(sys.name)
		for ni, n := range ns {
			s.Add(float64(n), pts[si][ni])
		}
	}
	return f
}

// Fig8 regenerates Figure 8: two-phase commit on the 8×4-core AMD system —
// single-operation latency and per-operation cost when pipelining 16
// operations. Both series fan out across the harness pool.
func Fig8(iters int) *figure {
	m := topo.AMD8x4()
	f := newFigure("fig8", "Figure 8: two-phase commit ("+m.Name+")", "cores", "cycles per operation")
	depths := []int{1, 16}
	ns := sweepCores(2, 32)
	pts := harness.Map2(len(depths), len(ns), func(di, ni int) float64 {
		return twoPCLatency(m, ns[ni], iters, depths[di])
	})
	single := f.AddSeries("Single-operation latency")
	piped := f.AddSeries("Cost when pipelining")
	for ni, n := range ns {
		single.Add(float64(n), pts[0][ni])
		piped.Add(float64(n), pts[1][ni])
	}
	return f
}

// twoPCLatency measures per-operation cost of capability retypes over the
// first n cores with the given pipeline depth.
func twoPCLatency(m *topo.Machine, n, iters, depth int) float64 {
	e := sim.NewEngine(1)
	defer e.Close()
	s := core.Boot(e, m)
	var total sim.Time
	var ops int
	e.Spawn("bench", func(p *sim.Proc) {
		targets := make([]topo.CoreID, n)
		for i := range targets {
			targets[i] = topo.CoreID(i)
		}
		mon := s.Net.Monitor(0)
		next := memory.Addr(1 << 30)
		alloc := func() memory.Addr {
			next += 0x10000
			return next
		}
		// Warm round.
		mon.Retype(p, alloc(), 4096, caps.Frame, 0, targets)
		for it := 0; it < iters; it++ {
			start := p.Now()
			if depth == 1 {
				if !mon.Retype(p, alloc(), 4096, caps.Frame, 0, targets) {
					panic("retype aborted in benchmark")
				}
				ops++
			} else {
				futs := make([]*sim.Future[bool], depth)
				for i := range futs {
					futs[i] = mon.RetypeAsync(p, alloc(), 4096, caps.Frame, 0, targets)
				}
				for _, fut := range futs {
					if !fut.Await(p) {
						panic("pipelined retype aborted")
					}
					ops++
				}
			}
			total += p.Now() - start
		}
	})
	e.Run()
	e.CheckQuiesced()
	return float64(total) / float64(ops)
}
