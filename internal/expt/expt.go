// Package expt contains the benchmark harness: one runner per table and
// figure of the paper's evaluation (§5), each regenerating the same rows or
// series the paper reports, on the same (simulated) machines. EXPERIMENTS.md
// records the paper-vs-measured comparison for every artifact.
package expt

import (
	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
)

// Aliases keeping the runners concise.
type figure = stats.Figure
type series = stats.Series
type table = stats.Table

func newFigure(key, title, xlabel, ylabel string) *figure {
	return &figure{Key: key, Title: title, XLabel: xlabel, YLabel: ylabel}
}

// Env bundles a freshly simulated machine for one measurement run.
type Env struct {
	E    *sim.Engine
	M    *topo.Machine
	Sys  *cache.System
	Kern *kernel.System
	KB   *skb.KB
}

// NewEnv builds hardware models and a populated SKB for machine m.
func NewEnv(m *topo.Machine, seed uint64) *Env {
	e := sim.NewEngine(seed)
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	kb := skb.New(m)
	kb.Discover()
	kb.Measure()
	return &Env{E: e, M: m, Sys: sys, Kern: kernel.NewSystem(e, m), KB: kb}
}

// run runs the env's engine to completion and panics, naming them, if any
// driver proc is still parked: a point that never finished must not be
// reported as a measurement.
func (v *Env) run() {
	v.E.Run()
	v.E.CheckQuiesced()
}

// Close releases the env's engine.
func (v *Env) Close() { v.E.Close() }

// Cores returns the first n cores of the env's machine.
func (v *Env) Cores(n int) []topo.CoreID {
	out := make([]topo.CoreID, n)
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

// sweepCores returns the core counts used on the x-axes: 2..max in steps of
// step, always including max.
func sweepCores(step, max int) []int {
	var out []int
	for n := 2; n <= max; n += step {
		out = append(out, n)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
