package expt

import (
	"multikernel/internal/core"
	"multikernel/internal/fault"
	"multikernel/internal/harness"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file holds the robustness extension experiment: how the agreement
// protocols behave under a seeded fault schedule on the 8×4-core AMD system.
// Each point arms a fault.Random schedule (fail-stop cores plus degraded
// links and cache-owner stalls, all derived from the point's seed) onto a
// fresh engine and drives repeated global unmaps through it with monitor
// fault tolerance enabled. Reported are the recovery latency — from each
// kill to the completion of the first coordinated operation that finishes
// after it — and the degraded-mode throughput of the surviving cores.

// recoveryOpTimeout is the aggregation deadline used by the recovery
// experiment: comfortably above any fault-free response time on the 8×4
// machine, small against the experiment horizon.
const recoveryOpTimeout = 100_000

// recoveryPoint is one hermetic run: faults faults (that many kills, link
// degradations, and stalls each) against rounds sequential global unmaps.
type recoveryResult struct {
	meanRecovery float64 // mean cycles from a kill to the next op completion
	maxLatency   float64 // slowest single unmap round
	throughput   float64 // completed unmaps per Mcycle of driver wall-clock
}

func recoveryPoint(seed uint64, faults, rounds int) recoveryResult {
	m := topo.AMD8x4()
	e := sim.NewEngine(seed)
	defer e.Close()
	s := core.Boot(e, m)
	s.Net.EnableFaultTolerance(recoveryOpTimeout)
	inj := fault.NewInjector(e, s.Cache)
	inj.OnKill(func(c topo.CoreID) { s.Net.FailStop(c) })
	sched := fault.Random(seed, m, fault.Spec{
		Kills:      faults,
		LinkFaults: faults,
		Stalls:     faults,
		Window:     [2]sim.Time{50_000, sim.Time(rounds) * 60_000},
		Protect:    []topo.CoreID{0},
	})
	inj.Arm(sched)

	var res recoveryResult
	var completions []sim.Time
	var start, end sim.Time
	var maxLat sim.Time
	done := 0
	e.Spawn("driver", func(p *sim.Proc) {
		mon := s.Net.Monitor(0)
		start = p.Now()
		for i := 0; i < rounds; i++ {
			p.Sleep(10_000)
			t0 := p.Now()
			if mon.Unmap(p, 0x10000, 4096, nil, monitor.NUMAAware) {
				done++
				completions = append(completions, p.Now())
			}
			if lat := p.Now() - t0; lat > maxLat {
				maxLat = lat
			}
			p.Sleep(20_000)
		}
		end = p.Now()
	})
	e.Run()
	e.CheckQuiesced()

	var recSum float64
	var recN int
	for _, c := range sched.Kills() {
		killT, ok := inj.Killed(c)
		if !ok {
			continue // fired after the driver finished
		}
		for _, ct := range completions {
			if ct >= killT {
				recSum += float64(ct - killT)
				recN++
				break
			}
		}
	}
	if recN > 0 {
		res.meanRecovery = recSum / float64(recN)
	}
	res.maxLatency = float64(maxLat)
	if end > start {
		res.throughput = float64(done) / (float64(end-start) / 1e6)
	}
	return res
}

// FaultRecovery sweeps the fault rate on the 8×4-core AMD system and returns
// the recovery-latency and degraded-throughput figures. seed selects the
// family of fault schedules (mkbench -fault-seed); each sweep point mixes it
// with the fault count so no two points share a schedule, and the whole sweep
// is byte-identical at any harness parallelism.
func FaultRecovery(seed uint64, rounds int) (*figure, *figure) {
	lat := newFigure("faults-latency", "Extension: recovery latency under seeded faults (8x4-core AMD)",
		"faults injected (kills = link faults = stalls)", "cycles")
	rec := lat.AddSeries("mean kill-to-completion recovery")
	worst := lat.AddSeries("max unmap latency")
	thr := newFigure("faults-throughput", "Extension: degraded-mode throughput under seeded faults (8x4-core AMD)",
		"faults injected (kills = link faults = stalls)", "unmaps per Mcycle")
	tseries := thr.AddSeries("completed unmaps per Mcycle")

	faults := []int{0, 1, 2, 4, 8}
	pts := harness.Map(len(faults), func(i int) recoveryResult {
		return recoveryPoint(seed+uint64(i)*0x9e37_79b9_7f4a_7c15, faults[i], rounds)
	})
	for i, k := range faults {
		x := float64(k)
		rec.Add(x, pts[i].meanRecovery)
		worst.Add(x, pts[i].maxLatency)
		tseries.Add(x, pts[i].throughput)
	}
	return lat, thr
}
