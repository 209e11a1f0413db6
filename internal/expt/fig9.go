package expt

import (
	"multikernel/internal/apps"
	"multikernel/internal/baseline"
	"multikernel/internal/harness"
	"multikernel/internal/threads"
	"multikernel/internal/topo"
)

// fig9CoreCounts are the x-axis points of Figure 9.
func fig9CoreCounts() []int { return []int{1, 2, 4, 8, 12, 16} }

// RunFig9Workload measures one workload at one core count under both
// systems, returning total cycles (Barrelfish, Linux).
func RunFig9Workload(wl apps.Workload, n int) (bf, lx float64) {
	m := topo.AMD4x4()

	{ // Barrelfish: user-space threads and spin barriers.
		env := NewEnv(m, 2)
		team := threads.NewTeam(env.Sys, env.Kern, env.Cores(16))
		bf = float64(apps.RunCompute(team, wl, env.Cores(n), func(parts int) apps.Barrier {
			return apps.SpinBarrierAdapter{B: team.NewSpinBarrier(parts, 0)}
		}))
		env.Close()
	}
	{ // Linux: in-kernel futex barriers (plus their syscall costs).
		env := NewEnv(m, 2)
		k := baseline.New(env.E, env.Sys, env.Kern, baseline.Linux)
		team := threads.NewTeam(env.Sys, env.Kern, env.Cores(16))
		lx = float64(apps.RunCompute(team, wl, env.Cores(n), func(parts int) apps.Barrier {
			return kernelBarrier{k.NewBarrier(parts, 0)}
		}))
		env.Close()
	}
	return bf, lx
}

// kernelBarrier adapts the baseline barrier to the workload interface.
type kernelBarrier struct{ b *baseline.Barrier }

func (a kernelBarrier) Wait(th *threads.Thread) { a.b.Wait(th.Proc(), th.Core()) }

// Fig9 regenerates Figure 9: the five compute-bound workloads (NAS CG, FT,
// IS; SPLASH-2 Barnes-Hut and radiosity) on the 4×4-core AMD system,
// Barrelfish versus Linux, 1..16 cores. One figure per workload. All
// (workload, cores) points share one harness worker pool so the expensive
// workloads do not serialize behind each other.
func Fig9(scale float64) []*figure {
	wls := apps.NASWorkloads()
	for i := range wls {
		if scale > 0 && scale < 1 {
			wls[i].Iters = int(float64(wls[i].Iters)*scale) + 1
		}
	}
	ns := fig9CoreCounts()
	type point struct{ bf, lx float64 }
	pts := harness.Map2(len(wls), len(ns), func(wi, ni int) point {
		bf, lx := RunFig9Workload(wls[wi], ns[ni])
		return point{bf, lx}
	})
	var out []*figure
	for wi, wl := range wls {
		f := newFigure("fig9-"+wl.Name, "Figure 9: "+wl.Name+" (4x4-core AMD)", "cores", "cycles")
		bfs := f.AddSeries("Barrelfish")
		lxs := f.AddSeries("Linux")
		for ni, n := range ns {
			bfs.Add(float64(n), pts[wi][ni].bf)
			lxs.Add(float64(n), pts[wi][ni].lx)
		}
		out = append(out, f)
	}
	return out
}
