package expt

import (
	"fmt"

	"multikernel/internal/baseline"
	"multikernel/internal/caps"
	"multikernel/internal/core"
	"multikernel/internal/harness"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file holds extension experiments beyond the paper's evaluation:
// the scalability the paper could not measure ("we have not evaluated the
// system's scalability beyond currently-available commodity hardware",
// §5.5), the §3.3 shared-replica optimization it proposes as future work,
// and a scheduler-contention study on the baseline's shared run queue.

// ExtScaling measures NUMA-aware-multicast shootdown and the end-to-end
// unmap on synthetic mesh machines past 32 cores, alongside the monolithic
// comparator — the future-hardware projection of Figures 6 and 7.
func ExtScaling(iters int) *figure {
	f := newFigure("ext-scale", "Extension: scaling past commodity core counts (mesh machines)",
		"cores", "latency (cycles)")
	shoot := f.AddSeries("raw NUMA multicast")
	unmap := f.AddSeries("Barrelfish unmap")
	lx := f.AddSeries("Linux unmap")
	meshes := []*topo.Machine{
		topo.MeshXY(2, 2, 4), // 16 cores
		topo.MeshXY(4, 2, 4), // 32
		topo.MeshXY(4, 3, 4), // 48
		topo.MeshXY(4, 4, 4), // 64
	}
	runs := []func(m *topo.Machine, n int) float64{
		func(m *topo.Machine, n int) float64 {
			return monitor.RawShootdownLatency(m, monitor.NUMAAware, n, iters)
		},
		func(m *topo.Machine, n int) float64 { return unmapLatencyProto(m, n, iters, monitor.NUMAAware) },
		func(m *topo.Machine, n int) float64 { return unmapLatencyBaseline(m, baseline.Linux, n, iters) },
	}
	pts := harness.Map2(len(runs), len(meshes), func(ri, mi int) float64 {
		m := meshes[mi]
		return runs[ri](m, m.NumCores())
	})
	for mi, m := range meshes {
		n := float64(m.NumCores())
		shoot.Add(n, pts[0][mi])
		unmap.Add(n, pts[1][mi])
		lx.Add(n, pts[2][mi])
	}
	return f
}

// ExtSharedReplica measures the §3.3 shared-replica optimization: global
// retype cost with per-core replicas versus one spinlocked replica per
// socket, across machine sizes.
func ExtSharedReplica(iters int) *table {
	t := &table{
		Title:   "Extension: shared-replica optimization (2PC retype cost, cycles)",
		Columns: []string{"Machine", "per-core replicas", "per-socket replicas", "speedup"},
	}
	for _, m := range []*topo.Machine{topo.AMD4x4(), topo.AMD8x4(), topo.MeshXY(4, 4, 4)} {
		per := retypeCost(m, false, iters)
		grp := retypeCost(m, true, iters)
		t.AddRow(m.Name,
			fmt.Sprintf("%.0f", per),
			fmt.Sprintf("%.0f", grp),
			fmt.Sprintf("%.2fx", per/grp))
	}
	return t
}

func retypeCost(m *topo.Machine, shared bool, iters int) float64 {
	e := sim.NewEngine(1)
	defer e.Close()
	s := core.BootWith(e, m, core.Options{SharedReplicas: shared})
	var total sim.Time
	e.Spawn("bench", func(p *sim.Proc) {
		warm := s.Mem.Alloc(4096, 0)
		s.GlobalRetype(p, 0, warm.Base, warm.Bytes, caps.Frame, 0)
		for i := 0; i < iters; i++ {
			reg := s.Mem.Alloc(4096, 0)
			start := p.Now()
			if !s.GlobalRetype(p, 0, reg.Base, reg.Bytes, caps.Frame, 0) {
				panic("retype aborted")
			}
			total += p.Now() - start
		}
	})
	e.Run()
	e.CheckQuiesced()
	return float64(total) / float64(iters)
}

// ExtRunQueue measures the baseline's shared, spinlocked run queue against
// per-core queues as scheduler load rises — the contention the paper's
// Figure 4 spectrum starts from.
func ExtRunQueue(opsPerCore int) *table {
	t := &table{
		Title:   "Extension: scheduler run-queue contention (4x4-core AMD, cycles/op)",
		Columns: []string{"cores", "shared queue", "per-core queues", "slowdown"},
	}
	for _, n := range []int{2, 4, 8, 16} {
		sharedCost := runQueueCost(n, opsPerCore, true)
		perCore := runQueueCost(n, opsPerCore, false)
		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", sharedCost),
			fmt.Sprintf("%.0f", perCore),
			fmt.Sprintf("%.1fx", sharedCost/perCore))
	}
	return t
}

func runQueueCost(nCores, ops int, shared bool) float64 {
	m := topo.AMD4x4()
	env := NewEnv(m, 1)
	defer env.Close()
	k := baseline.New(env.E, env.Sys, env.Kern, baseline.Linux)
	queues := make([]*baseline.RunQueue, nCores)
	for i := range queues {
		if shared {
			if i == 0 {
				queues[i] = k.NewRunQueue(0)
			} else {
				queues[i] = queues[0]
			}
		} else {
			queues[i] = k.NewRunQueue(m.Socket(topo.CoreID(i)))
		}
	}
	done := sim.NewWaitGroup(env.E)
	done.Add(nCores)
	var total sim.Time
	for c := 0; c < nCores; c++ {
		c := c
		env.E.Spawn(fmt.Sprintf("sched%d", c), func(p *sim.Proc) {
			defer done.Done()
			start := p.Now()
			q := queues[c]
			for i := 0; i < ops; i++ {
				q.Enqueue(p, topo.CoreID(c), i)
				q.Dequeue(p, topo.CoreID(c))
			}
			total += p.Now() - start
		})
	}
	env.run()
	return float64(total) / float64(nCores*ops)
}
