package expt

// Engine-throughput benchmarks for the parallel intra-run simulation layer:
// how many simulated events per wall-clock second the engine retires,
// serially and under per-socket sub-engines at several worker counts, and
// what the gem5-style boot-checkpoint workflow saves per sweep point.

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"multikernel/internal/core"
	"multikernel/internal/harness"
	"multikernel/internal/interconnect"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/vm"
)

// engineStorm builds the synthetic benchmark workload on pe: per-partition
// background event storms (one proc per core of the socket) plus token rings
// crossing every partition boundary, all RNG-flavored so epochs stay
// irregular. scale sets both the local event count per core and the ring hop
// budget.
func engineStorm(pe *sim.ParallelEngine, m *topo.Machine, scale int) {
	nparts := pe.NParts()
	// hop[i] takes a token with n hops left on partition i.
	hop := make([]func(v, n uint64), nparts)
	forward := func(src int, delay sim.Time, v, n uint64) {
		dst := (src + 1) % nparts
		pe.Send(src, dst, delay, func() { hop[dst](v, n) })
	}
	for i := 0; i < nparts; i++ {
		i := i
		e := pe.Part(i)
		tokens := e.Metrics().Counter("storm.tokens")
		hop[i] = func(v, n uint64) {
			tokens.Inc()
			if n == 0 {
				return
			}
			e.After(1+e.RNG().Time(200), func() {
				forward(i, pe.Lookahead()+sim.Time(v%127), v*0x9e3779b9+uint64(i), n-1)
			})
		}
		for c := 0; c < m.CoresPerSocket; c++ {
			pe.Spawn(i, fmt.Sprintf("core%d.%d", i, c), func(p *sim.Proc) {
				for j := 0; j < scale; j++ {
					p.Sleep(1 + e.RNG().Time(120))
				}
			})
		}
	}
	for i := 0; i < nparts; i++ {
		for k := 0; k < m.CoresPerSocket; k++ {
			forward(i, pe.Lookahead(), uint64(i*100+k), uint64(scale))
		}
	}
}

// engineRun is one storm run: its worker count, dispatched events,
// wall-clock seconds and final engine image.
type engineRun struct {
	workers int
	events  uint64
	seconds float64
	img     []byte
}

func engineBenchOnce(m *topo.Machine, scale, workers int) engineRun {
	pm := topo.PerSocket(m)
	pe := sim.NewParallelEngine(pm.NParts(), interconnect.Lookahead(m, pm), 99, workers)
	engineStorm(pe, m, scale)
	t0 := time.Now()
	pe.Run()
	wall := time.Since(t0).Seconds()
	events := pe.MetricsSnapshot().Counters["sim.events_dispatched"]
	var img bytes.Buffer
	if err := pe.Checkpoint(&img); err != nil {
		panic("expt: engine bench checkpoint: " + err.Error())
	}
	pe.Close()
	return engineRun{pe.Workers(), events, wall, img.Bytes()}
}

// engineBench runs the storm on the 8×4 machine serially and at each
// worker count above one, checking that every parallel run's final engine
// image is byte-identical to the serial reference. Wall-clock speedup is
// hardware-dependent (it needs as many idle host cores as workers); byte
// identity is not.
func engineBench(scale int, workerCounts []int) Result {
	m := topo.AMD8x4()
	runs := []engineRun{engineBenchOnce(m, scale, 1)}
	for _, w := range workerCounts {
		runs = append(runs, engineBenchOnce(m, scale, w))
	}
	ref := runs[0]
	t := &table{
		Title:   "Engine throughput: per-socket sub-engines, conservative lookahead (8x4-core AMD)",
		Columns: []string{"workers", "events", "wall s", "events/s", "speedup", "identical"},
	}
	h := map[string]float64{"sim.events": float64(ref.events)}
	identical := true
	for _, r := range runs {
		var perSec, speedup float64
		if r.seconds > 0 {
			perSec = float64(r.events) / r.seconds
			speedup = ref.seconds / r.seconds
		}
		same := bytes.Equal(r.img, ref.img)
		identical = identical && same
		t.AddRow(fmt.Sprintf("%d", r.workers), fmt.Sprintf("%d", r.events),
			fmt.Sprintf("%.3f", r.seconds), fmt.Sprintf("%.3g", perSec),
			fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%v", same))
		h[fmt.Sprintf("sim.events_per_sec.w%d", r.workers)] = round3(perSec)
		h[fmt.Sprintf("sim.speedup.w%d", r.workers)] = round3(speedup)
	}
	h["sim.identical"] = b2f(identical)
	return Result{Tables: []*table{t}, Headline: h}
}

// WarmStartMachine is the platform warmStart sweeps (and the one a saved
// boot image must have been checkpointed on).
func WarmStartMachine() *topo.Machine { return topo.AMD4x4() }

// BootImage boots a multikernel on m to quiescence and returns the engine
// checkpoint image — the artifact mkbench -checkpoint writes to disk and
// mkbench -restore feeds back into warmStart on a later run.
func BootImage(m *topo.Machine) []byte {
	e := sim.NewEngine(1)
	core.Boot(e, m)
	e.Run()
	e.CheckQuiesced()
	var img bytes.Buffer
	if err := e.Checkpoint(&img); err != nil {
		panic("expt: boot checkpoint: " + err.Error())
	}
	e.Close()
	return img.Bytes()
}

// warmStart measures what Engine.Checkpoint buys a sweep: points sweep
// points each needing a freshly booted multikernel, run cold (boot per
// point) and warm (boot once, checkpoint, sim.Restore per point). Points are
// fanned out through the harness in both modes; each runs the same
// coordinated-unmap workload, and the two modes must agree on every point's
// virtual-time result. A non-nil img supplies a previously saved boot image
// (mkbench -restore), so the warm phase skips even the single boot.
func warmStart(points int, img []byte) Result {
	m := WarmStartMachine()
	cores := make([]topo.CoreID, m.NumCores())
	for c := range cores {
		cores[c] = topo.CoreID(c)
	}
	workload := func(e *sim.Engine, s *core.System) sim.Time {
		var cost sim.Time
		e.Spawn("init", func(p *sim.Proc) {
			d, err := s.NewDomain(p, "pt", cores)
			if err != nil {
				panic(err)
			}
			va, err := d.MapAnon(p, 0, 2*vm.PageSize, vm.Read|vm.Write)
			if err != nil {
				panic(err)
			}
			start := p.Now()
			if err := d.Unmap(p, 0, va, 2*vm.PageSize, monitor.NUMAAware); err != nil {
				panic(err)
			}
			cost = p.Now() - start
		})
		e.Run()
		e.CheckQuiesced()
		e.Close()
		return cost
	}

	t0 := time.Now()
	cold := harness.Map(points, func(i int) sim.Time {
		e := sim.NewEngine(1)
		s := core.Boot(e, m)
		e.Run()
		e.CheckQuiesced()
		return workload(e, s)
	})
	coldSec := time.Since(t0).Seconds()

	t0 = time.Now()
	if img == nil {
		img = BootImage(m)
	}
	warm := harness.Map(points, func(i int) sim.Time {
		var s *core.System
		e, err := sim.Restore(bytes.NewReader(img), func(e *sim.Engine) {
			s = core.Boot(e, m)
		})
		if err != nil {
			panic("expt: restore boot image: " + err.Error())
		}
		return workload(e, s)
	})
	warmSec := time.Since(t0).Seconds()

	identical := slices.Equal(cold, warm)

	t := &table{
		Title:   fmt.Sprintf("Warm-started sweep: %d points on %s", points, m.Name),
		Columns: []string{"mode", "wall s", "per point ms", "identical"},
	}
	t.AddRow("cold boot", fmt.Sprintf("%.3f", coldSec),
		fmt.Sprintf("%.1f", 1000*coldSec/float64(points)), "-")
	t.AddRow("restore", fmt.Sprintf("%.3f", warmSec),
		fmt.Sprintf("%.1f", 1000*warmSec/float64(points)), fmt.Sprintf("%v", identical))
	return Result{Tables: []*table{t}, Headline: map[string]float64{
		"sim.cold_seconds":     round3(coldSec),
		"sim.warm_seconds":     round3(warmSec),
		"sim.boot_image_bytes": float64(len(img)),
		"sim.warm_identical":   b2f(identical),
	}}
}
