package monitor

import (
	"fmt"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// This file implements core power management (§3.3, §4.4): a core can be
// taken offline to save power and brought back later. The set of online
// cores is itself replicated OS state: every monitor holds its own view,
// and changes are disseminated with the same order-insensitive one-phase
// protocol as TLB shootdown, so subsequent coordinated operations (unmap,
// retype) simply stop — or resume — including the affected core. Multicast
// trees are recomputed from each monitor's view, demonstrating the paper's
// claim that replication "supports changes to the set of running cores".

// coreDownParkCost models entering the core sleep state (MONITOR/MWAIT or
// waiting for an IPI, §4.4).
const coreDownParkCost = 2000

// onlineView returns the cores this monitor currently believes are online.
func (m *Monitor) onlineView() []topo.CoreID {
	var out []topo.CoreID
	for c, up := range m.view {
		if up {
			out = append(out, topo.CoreID(c))
		}
	}
	return out
}

// Online reports monitor m's replicated view of whether core c is online.
func (m *Monitor) Online(c topo.CoreID) bool { return m.view[c] }

// applyCoreChange updates this monitor's replica of the online set.
func (m *Monitor) applyCoreChange(op Op) {
	target := topo.CoreID(op.Bytes)
	m.view[target] = op.Kind == OpCoreUp
	if target == m.Core && op.Kind == OpCoreDown {
		m.down = true
	}
}

// PowerOff takes victim offline: the initiating monitor disseminates the
// membership change to every online core (victim included, so it learns to
// halt), after which no coordinated operation targets the victim and its
// monitor sleeps until PowerOn. Powering off the initiator itself or the
// last online core is refused.
func (n *Network) PowerOff(p *sim.Proc, initiator, victim topo.CoreID) error {
	mon := n.Monitor(initiator)
	if victim == initiator {
		return fmt.Errorf("monitor: core %d cannot power itself off through itself", victim)
	}
	if !mon.view[victim] {
		return fmt.Errorf("monitor: core %d is already offline", victim)
	}
	online := 0
	for _, up := range mon.view {
		if up {
			online++
		}
	}
	if online <= 1 {
		return fmt.Errorf("monitor: cannot power off the last online core")
	}
	op := Op{Kind: OpCoreDown, ID: mon.nextOpID(), Origin: initiator, Bytes: uint64(victim)}
	mon.finishCall(p, mon.submit(p, &localReq{op: op, protocol: NUMAAware}))
	return nil
}

// PowerOn brings victim back online: the initiator raises an IPI to wake the
// core (the INIT/SIPI analogue), then disseminates the membership change so
// every monitor's replica includes it again.
func (n *Network) PowerOn(p *sim.Proc, initiator, victim topo.CoreID) error {
	mon := n.Monitor(initiator)
	if n.failed[victim] {
		return fmt.Errorf("monitor: core %d fail-stopped and cannot be powered on", victim)
	}
	if mon.view[victim] {
		return fmt.Errorf("monitor: core %d is already online", victim)
	}
	vm := n.Monitor(victim)
	// Wake the sleeping core.
	n.Kern.Core(initiator).SendIPI(p, victim, 0)
	vm.down = false
	vm.view[victim] = true
	if vm.proc != nil { // nil under a parallel boot when victim is remote
		n.Eng.Wake(vm.proc)
	}
	op := Op{Kind: OpCoreUp, ID: mon.nextOpID(), Origin: initiator, Bytes: uint64(victim)}
	mon.finishCall(p, mon.submit(p, &localReq{op: op, protocol: NUMAAware}))
	return nil
}
