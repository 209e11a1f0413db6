// Package kernel models the privileged-mode CPU driver of each core (paper
// §4.3): a purely core-local, event-driven, single-threaded kernel that
// enforces protection, dispatches processes and mediates access to core
// hardware. CPU drivers share no state; everything cross-core goes through
// URPC channels owned by user-space (package urpc) or inter-processor
// interrupts delivered here.
//
// The package also implements the driver's two same-core IPC primitives:
// the asynchronous fixed-size message facility and the synchronous LRPC fast
// path whose one-way cost the paper reports in Table 1.
package kernel

import (
	"fmt"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// lrpcCheckCost is the capability-invocation check the CPU driver performs on
// the LRPC fast path, identical across machines.
const lrpcCheckCost = 75

// IPIHandler is invoked (in engine context; it must not block) when an
// inter-processor interrupt arrives at a core. Handlers typically enqueue
// work and wake a proc.
type IPIHandler func(from topo.CoreID, vector int)

// Core is one CPU driver instance plus the hardware it mediates.
type Core struct {
	ID   topo.CoreID
	mach *topo.Machine
	eng  *sim.Engine

	ipiHandler IPIHandler
	route      routeFn // resolves CoreIDs for IPI delivery
}

// System is the set of CPU drivers of one machine.
type System struct {
	Eng   *sim.Engine
	Cores []*Core
}

// NewSystem creates one CPU driver per core of the machine.
func NewSystem(e *sim.Engine, m *topo.Machine) *System {
	s := &System{Eng: e}
	for i := 0; i < m.NumCores(); i++ {
		s.Cores = append(s.Cores, &Core{
			ID:   topo.CoreID(i),
			mach: m,
			eng:  e,
		})
	}
	s.connect()
	return s
}

// Core returns the driver for core c.
func (s *System) Core(c topo.CoreID) *Core { return s.Cores[c] }

// Syscall charges one system-call entry/exit on this core.
func (c *Core) Syscall(p *sim.Proc) {
	p.Sleep(c.mach.Costs.Syscall)
}

// Trap charges one hardware trap/interrupt entry/exit on this core.
func (c *Core) Trap(p *sim.Proc) {
	p.Sleep(c.mach.Costs.Trap)
}

// ContextSwitch charges a switch between dispatchers on this core.
func (c *Core) ContextSwitch(p *sim.Proc) {
	p.Sleep(c.mach.Costs.CSwitch)
}

// LRPCCost returns the one-way user-to-user cost of the synchronous LRPC
// primitive on this machine: syscall entry, capability check, context switch
// to the target dispatcher, scheduler-activation upcall and user-level
// dispatch (Table 1).
func LRPCCost(m *topo.Machine) sim.Time {
	c := &m.Costs
	return c.Syscall + lrpcCheckCost + c.CSwitch + c.Upcall + c.Dispatch
}

// LRPC charges a one-way LRPC from the running process to another process on
// the same core (the fast-path of §4.3).
func (c *Core) LRPC(p *sim.Proc) {
	p.Sleep(LRPCCost(c.mach))
}

// OnIPI installs the core's interrupt handler.
func (c *Core) OnIPI(h IPIHandler) { c.ipiHandler = h }

// SendIPI sends an inter-processor interrupt to core `to`. The sender is
// charged the APIC send cost; the interrupt arrives after an
// interconnect-distance delay and runs the target's handler in engine
// context. The receiving core's trap cost is charged by the handler's
// consumer (see Core.Trap), matching how the paper accounts the ~800-cycle
// trap on each shot-down core.
func (c *Core) SendIPI(p *sim.Proc, to topo.CoreID, vector int) {
	p.Sleep(c.mach.Costs.IPIDeliver)
	target := to
	delay := c.mach.TransferLat(target, c.ID) / 2 // one-way wire delay
	eng := c.eng
	sys := c
	eng.After(delay, func() {
		sys.deliverIPI(target, vector)
	})
}

// deliverIPI is split out so System can route to the right core.
func (c *Core) deliverIPI(to topo.CoreID, vector int) {
	// The Core type has no back-pointer to System; IPI delivery is wired by
	// System.Connect at construction. See System.route.
	if c.route == nil {
		panic("kernel: core not connected to a system")
	}
	tc := c.route(to)
	if tc.ipiHandler != nil {
		tc.ipiHandler(c.ID, vector)
	}
}

// route resolves a CoreID to its Core; installed by NewSystem via connect.
type routeFn func(topo.CoreID) *Core

// connect wires each core's IPI routing to the system.
func (s *System) connect() {
	for _, c := range s.Cores {
		c.route = func(id topo.CoreID) *Core { return s.Cores[id] }
	}
}

// String implements fmt.Stringer.
func (c *Core) String() string { return fmt.Sprintf("cpu%d", c.ID) }
