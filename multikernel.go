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

// Domain is a process spanning several cores with a shared address space.
type Domain = core.Domain

// Machine describes a simulated multiprocessor.
type Machine = topo.Machine

// Protocol selects a dissemination protocol for coordinated operations.
type Protocol = monitor.Protocol

// Dissemination protocols (paper §5.1).
const (
	Unicast   = monitor.Unicast
	Multicast = monitor.Multicast
	NUMAAware = monitor.NUMAAware
)

// NewEngine returns a deterministic simulation engine with the given seed.
func NewEngine(seed uint64) *sim.Engine { return sim.NewEngine(seed) }

// Boot brings up a multikernel on machine m: one CPU driver and monitor per
// core, the URPC mesh, the system knowledge base and per-core capability
// spaces.
func Boot(e *sim.Engine, m *Machine) *System { return core.Boot(e, m) }

// The paper's four test platforms (§4.1).
var (
	Intel2x4 = topo.Intel2x4
	AMD2x2   = topo.AMD2x2
	AMD4x4   = topo.AMD4x4
	AMD8x4   = topo.AMD8x4
)

// Mesh builds a synthetic scalable machine: an nx×ny socket grid with the
// paper-machine cost model.
func Mesh(nx, ny, coresPerSocket int) *Machine { return topo.MeshXY(nx, ny, coresPerSocket) }

// The scaled 64–1024-core machines: k×k meshes and tori with XY routing and
// mode-dependent coherence costs, and clustered hierarchies with slower
// uplinks. These are the platforms of the broadcast-vs-directory sweeps.
var (
	ScaledMesh  = topo.Mesh
	ScaledTorus = topo.Torus
	Hier        = topo.Hier
)

// AllMachines returns the paper's four test platforms.
func AllMachines() []*Machine { return topo.AllMachines() }

// AllCores lists every core of a machine, the common argument to NewDomain
// and coordinated operations.
func AllCores(m *Machine) []topo.CoreID {
	out := make([]topo.CoreID, m.NumCores())
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}
