package expt

import (
	"fmt"

	"multikernel/internal/apps"
	"multikernel/internal/topo"
)

// Fig3 regenerates Figure 3: the cost of updating shared state with shared
// memory (SHM1–8: 1..8 cache lines updated directly by all cores) versus
// message passing (MSG1/MSG8: RPC to a server core), plus the server-side
// cost, on the 4×4-core AMD system, for 2..16 cores.
func Fig3(iters int) *figure {
	m := topo.AMD4x4()
	f := newFigure("fig3",
		"Figure 3: shared memory vs. message passing ("+m.Name+")",
		"cores", "latency (cycles)")
	shmLines := []int{1, 2, 4, 8}
	for _, lines := range shmLines {
		s := f.AddSeries(fmt.Sprintf("SHM%d", lines))
		for _, n := range sweepCores(2, 16) {
			env := NewEnv(m, 1)
			res := apps.SHMUpdate(env.E, env.Sys, n, lines, iters)
			s.AddErr(float64(n), res.ClientLatency.Percentile(50), res.ClientLatency.Stddev())
			env.Close()
		}
	}
	for _, lines := range []int{1, 8} {
		s := f.AddSeries(fmt.Sprintf("MSG%d", lines))
		var server *series
		if lines == 8 {
			server = f.AddSeries("Server")
		}
		for _, n := range sweepCores(2, 16) {
			env := NewEnv(m, 1)
			// n is the number of client cores; the server runs on core 0.
			clients := n - 1
			if clients < 1 {
				clients = 1
			}
			res := apps.MSGUpdate(env.E, env.Sys, clients, lines, iters)
			s.AddErr(float64(n), res.ClientLatency.Percentile(50), res.ClientLatency.Stddev())
			if server != nil {
				server.Add(float64(n), res.ServerCost.Percentile(50))
			}
			env.Close()
		}
	}
	return f
}
