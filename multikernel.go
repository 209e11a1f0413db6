// Package multikernel is a library-level reproduction of "The Multikernel:
// A new OS architecture for scalable multicore systems" (Baumann et al.,
// SOSP 2009) — the Barrelfish operating system — built over a deterministic
// discrete-event simulation of cache-coherent multicore hardware.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/sim: deterministic virtual-time engine
//   - internal/topo, interconnect, memory, cache: the hardware models
//   - internal/kernel, urpc, caps, vm, monitor, skb, threads: the multikernel
//   - internal/baseline: the monolithic shared-memory comparator OS
//   - internal/netstack, apps: device models and workloads
//   - internal/expt: the harness regenerating every table and figure of the
//     paper's evaluation
//
// Quick start:
//
//	e := multikernel.NewEngine(1)
//	sys := multikernel.Boot(e, multikernel.AMD4x4())
//	e.Spawn("init", func(p *sim.Proc) {
//	    d, _ := sys.NewDomain(p, "app", sys.AllCores())
//	    ...
//	})
//	e.Run()
package multikernel

import (
	"multikernel/internal/core"
	"multikernel/internal/monitor"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// System is a booted multikernel instance. See internal/core for the full
// API: domains, virtual memory, globally-agreed capability operations.
type System = core.System

// Machine describes a simulated multiprocessor.
type Machine = topo.Machine

// NUMAAware is the NUMA-aware multicast dissemination protocol (paper §5.1)
// for coordinated operations.
const NUMAAware = monitor.NUMAAware

// NewEngine returns a deterministic simulation engine with the given seed.
func NewEngine(seed uint64) *sim.Engine { return sim.NewEngine(seed) }

// Boot brings up a multikernel on machine m: one CPU driver and monitor per
// core, the URPC mesh, the system knowledge base and per-core capability
// spaces.
func Boot(e *sim.Engine, m *Machine) *System { return core.Boot(e, m) }

// Two of the paper's four test platforms (§4.1): the 4×4-core and 8×4-core
// AMD systems. internal/topo has the others.
var (
	AMD4x4 = topo.AMD4x4
	AMD8x4 = topo.AMD8x4
)

// AllCores lists every core of a machine, the common argument to NewDomain
// and coordinated operations.
func AllCores(m *Machine) []topo.CoreID {
	out := make([]topo.CoreID, m.NumCores())
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}
