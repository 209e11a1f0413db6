package expt

import (
	"testing"

	"multikernel/internal/core"
	"multikernel/internal/memory"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// BenchmarkMonitorIdlePinned is the idle-polling gate consumed by
// ci/traceguard: closed-loop NUMA-aware unmaps from core 0 on the booted
// 8x4 AMD machine, seed 1, with a seeded think time of up to 2,000 cycles,
// for a fixed 1.5 Mcycle window. Nearly every event in it is an empty poll
// of an idle monitor, so simevents/op (events dispatched) and simhits/op
// (cache hits, one per poll of a held ring line) pin the idle path's event
// stream exactly: a change to how polls are run must not move either.
func BenchmarkMonitorIdlePinned(b *testing.B) {
	var events, hits uint64
	for i := 0; i < b.N; i++ {
		e := monitorIdleScenario()
		snap := e.Metrics().Snapshot()
		events, hits = snap.Counters["sim.events_dispatched"], snap.Counters["cache.hits"]
		e.Close()
	}
	b.ReportMetric(float64(events), "simevents/op")
	b.ReportMetric(float64(hits), "simhits/op")
}

// monitorIdleScenario runs BenchmarkMonitorIdlePinned's window and returns
// the engine, still open.
func monitorIdleScenario() *sim.Engine {
	const window = 1_500_000
	m := topo.AMD8x4()
	e := sim.NewEngine(1)
	s := core.Boot(e, m)
	targets := make([]topo.CoreID, m.NumCores())
	for c := range targets {
		targets[c] = topo.CoreID(c)
	}
	rng := sim.NewRNG(1)
	mon := s.Net.Monitor(0)
	e.Spawn("unmap-load", func(p *sim.Proc) {
		for {
			p.Sleep(rng.Time(2_000))
			va := memory.Addr(0x4000_0000 + rng.Intn(1024)*4096)
			if !mon.Unmap(p, va, 4096, targets, monitor.NUMAAware) {
				panic("unmap aborted")
			}
		}
	})
	e.RunUntil(window)
	return e
}
