package monitor

import "multikernel/internal/sim"

// ReplicateView repairs views after a fault storm in the convergence
// property test; LockedRanges inspects the lock table.

// ReplicateView is the anti-entropy pass of view repair: the calling monitor
// re-disseminates every membership removal it knows about, one OpCoreDown per
// offline core, over the normal one-phase path. Timeout-driven excision alone
// leaves a convergence gap — a monitor that excised a dead core can itself
// die mid-dissemination, leaving some survivors uninformed and no one with a
// reason to re-send — so after a fault storm an initiator that drove
// operations across the machine (and therefore holds the most complete view)
// calls this to bring every surviving replica in line with its own.
func (m *Monitor) ReplicateView(p *sim.Proc) {
	for c, up := range m.view {
		if up {
			continue
		}
		op := Op{Kind: OpCoreDown, ID: m.nextOpID(), Origin: m.Core, Bytes: uint64(c)}
		m.finishCall(p, m.submit(p, &localReq{op: op, protocol: NUMAAware}))
	}
}

// LockedRanges returns the number of currently locked ranges (for tests).
func (m *Monitor) LockedRanges() int { return len(m.locks) }
