package apps

import (
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/threads"
	"multikernel/internal/topo"
)

// Barrier abstracts the synchronization primitive that differs between the
// multikernel (user-space spin barrier) and the baseline (futex-style kernel
// barrier) in the Figure 9 workloads.
type Barrier interface {
	Wait(th *threads.Thread)
}

// SpinBarrierAdapter adapts threads.SpinBarrier to the Barrier interface.
type SpinBarrierAdapter struct{ B *threads.SpinBarrier }

// Wait implements Barrier.
func (a SpinBarrierAdapter) Wait(th *threads.Thread) { a.B.Wait(th) }

// Workload is one compute-bound benchmark skeleton: the per-iteration
// compute volume and communication pattern of the original program, with
// synchronization left to the provided barrier.
type Workload struct {
	Name  string
	Iters int
	// Work is the total per-iteration compute volume in cycles, divided
	// evenly among the cores (strong scaling).
	Work sim.Time
	// Serial is the per-iteration serial fraction executed by thread 0 only
	// (Amdahl term).
	Serial sim.Time
	// BarriersPerIter is how many barrier crossings each iteration performs.
	BarriersPerIter int
	// SharedRMWs is the number of contended atomic updates (reductions,
	// bucket counters) each thread performs per iteration on shared lines.
	SharedRMWs int
	// AllToAll, when true, adds a per-iteration exchange where every thread
	// writes a line later read by every other thread (FT-style transpose).
	AllToAll bool
	// TaskQueue, when true, replaces static partitioning with a central
	// work queue protected by a mutex (radiosity-style).
	TaskQueue bool
}

// NASWorkloads returns the Figure 9 benchmark skeletons. Compute volumes are
// scaled so single-core runs take the right order of magnitude relative to
// each other (paper Figure 9's y-axes).
func NASWorkloads() []Workload {
	return []Workload{
		{Name: "CG", Iters: 40, Work: 18_000_000, BarriersPerIter: 4, SharedRMWs: 2},
		{Name: "FT", Iters: 12, Work: 160_000_000, BarriersPerIter: 2, AllToAll: true},
		{Name: "IS", Iters: 20, Work: 5_500_000, BarriersPerIter: 3, SharedRMWs: 8},
		{Name: "BarnesHut", Iters: 12, Work: 15_000_000, Serial: 450_000, BarriersPerIter: 2},
		{Name: "Radiosity", Iters: 10, Work: 60_000_000, BarriersPerIter: 1, TaskQueue: true},
	}
}

// RunCompute executes the workload on the given cores with the given barrier
// factory and returns total cycles to completion.
func RunCompute(team *threads.Team, wl Workload, cores []topo.CoreID, newBarrier func(n int) Barrier) sim.Time {
	e := team.Sys().Memory() // just for allocation below
	n := len(cores)
	bar := newBarrier(n)
	sys := team.Sys()

	// Shared state for communication patterns.
	var reduction memory.Region
	if wl.SharedRMWs > 0 {
		reduction = e.AllocLines(1, 0)
	}
	var exchange memory.Region
	if wl.AllToAll {
		exchange = e.AllocLines(n, 0)
	}
	var queue *threads.Mutex
	var queueState memory.Region
	if wl.TaskQueue {
		queue = team.NewMutex(0)
		queueState = e.AllocLines(1, 0)
	}

	var end sim.Time
	for i, core := range cores {
		i, core := i, core
		team.Go(-1, core, wl.Name, func(th *threads.Thread) {
			perIter := wl.Work / sim.Time(n)
			for it := 0; it < wl.Iters; it++ {
				if wl.Serial > 0 {
					if i == 0 {
						th.Compute(wl.Serial)
					}
					bar.Wait(th)
				}
				if wl.TaskQueue {
					// Pull chunks from the central queue until the
					// iteration's work is consumed.
					const chunk = 2_000_000
					for done := sim.Time(0); done < perIter; done += chunk {
						queue.Lock(th)
						th.Load(queueState.Base)
						th.Store(queueState.Base, uint64(it))
						queue.Unlock(th)
						th.Compute(chunk)
					}
				} else {
					th.Compute(perIter)
				}
				for r := 0; r < wl.SharedRMWs; r++ {
					sys.RMW(th.Proc(), core, reduction.Base, func(v uint64) uint64 { return v + 1 })
				}
				if wl.AllToAll {
					th.Store(exchange.LineAt(i), uint64(it))
					bar.Wait(th)
					for j := 0; j < n; j++ {
						th.Load(exchange.LineAt(j))
					}
				}
				for b := 0; b < wl.BarriersPerIter; b++ {
					bar.Wait(th)
				}
				if th.Proc().Now() > end {
					end = th.Proc().Now()
				}
			}
		})
	}
	team.Engine().Run()
	team.Engine().CheckQuiesced()
	return end
}
