package monitor

import (
	"sort"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
	"multikernel/internal/urpc"
)

// This file makes the agreement protocols survive fail-stop cores. The
// mechanism follows the paper's own recipe: the set of online cores is
// replicated OS state (§3.3), so failure handling is just another membership
// change disseminated over the existing one-phase protocol. Detection is by
// timeout — with Network.OpTimeout armed, every outstanding protocol phase
// and every pending aggregation carries a deadline; when one expires, the
// waiting monitor excises the non-responders from its replicated view,
// disseminates OpCoreDown for each of them (which recomputes multicast trees
// everywhere, since trees are derived from the view), re-plans the operation
// over the survivors, and re-runs the current phase. Re-sent phases are
// harmless: one-phase operations are idempotent by design (§5.1), 2PC
// prepares are lock-idempotent per operation ID, and responses are tracked
// per responder so duplicates never complete a phase early.

// maxRecoveries bounds recovery rounds per operation; each round doubles the
// phase deadline. An operation that cannot complete within the budget fails
// (aborts for 2PC) rather than retrying forever.
const maxRecoveries = 3

// EnableFaultTolerance arms deadline-based failure detection and recovery on
// every monitor. opTimeout is the aggregation deadline (how long an
// aggregation node waits for its children); initiators wait twice that per
// phase so that subtree recovery gets a chance to resolve first.
func (n *Network) EnableFaultTolerance(opTimeout sim.Time) {
	n.OpTimeout = opTimeout
	n.Eng.NudgeAll() // armed deadlines change what an idle pass does
}

// FailStop fail-stops core c: its monitor process is killed at the current
// virtual time and never responds again. The rest of the system is NOT
// informed — surviving monitors learn of the death only through their own
// timeouts. Safe to call from an engine callback (fault.Injector's OnKill).
func (n *Network) FailStop(c topo.CoreID) {
	if n.failed[c] {
		return
	}
	n.failed[c] = true
	m := n.monitors[c]
	m.parked = false   // a dead monitor must never be woken or unparked
	if m.proc != nil { // nil under a parallel boot when c is a remote core
		n.Eng.Kill(m.proc)
	}
}

// CoreFailed reports the ground truth of whether core c was fail-stopped.
func (n *Network) CoreFailed(c topo.CoreID) bool { return n.failed[c] }

// opDeadline returns the deadline for an initiator phase started now, given
// how many recovery rounds the operation has already been through. Initiators
// wait twice the aggregation timeout per phase (subtree recovery resolves
// first), doubling per recovery round — exactly urpc.RetryPolicy's deadline
// schedule with Base = 2*OpTimeout.
func (m *Monitor) opDeadline(p *sim.Proc, recoveries int) sim.Time {
	if m.net.OpTimeout == 0 {
		return 0
	}
	rp := urpc.RetryPolicy{Base: 2 * m.net.OpTimeout}
	return rp.Deadline(p.Now(), recoveries)
}

// fwdDeadline returns the deadline for an aggregation started now (round 0 of
// the shared retry schedule: aggregators get one plain OpTimeout).
func (m *Monitor) fwdDeadline(p *sim.Proc) sim.Time {
	if m.net.OpTimeout == 0 {
		return 0
	}
	rp := urpc.RetryPolicy{Base: m.net.OpTimeout}
	return rp.Deadline(p.Now(), 0)
}

// sortedCores returns the set's members in ascending order, so recovery
// decisions never depend on map iteration order.
func sortedCores(set map[topo.CoreID]bool) []topo.CoreID {
	out := make([]topo.CoreID, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkDeadlines runs one failure-detector sweep, reporting whether any
// recovery ran (the caller must treat that as loop progress: recovery can
// self-push local requests, and a monitor that parked before popping them
// would never be woken). Expired aggregations are recovered before expired
// initiator phases (an aggregator answering upward may resolve the initiator
// without a full re-plan), and within each class operations recover in
// ascending ID order for determinism.
func (m *Monitor) checkDeadlines(p *sim.Proc) bool {
	now := p.Now()
	var fwIDs []uint64
	for id, fw := range m.fwd {
		if fw.deadline > 0 && now >= fw.deadline {
			fwIDs = append(fwIDs, id)
		}
	}
	sort.Slice(fwIDs, func(i, j int) bool { return fwIDs[i] < fwIDs[j] })
	for _, id := range fwIDs {
		if fw, ok := m.fwd[id]; ok {
			m.recoverFwd(p, id, fw)
		}
	}
	var opIDs []uint64
	for id, st := range m.ops {
		if st.deadline > 0 && now >= st.deadline {
			opIDs = append(opIDs, id)
		}
	}
	sort.Slice(opIDs, func(i, j int) bool { return opIDs[i] < opIDs[j] })
	for _, id := range opIDs {
		if st, ok := m.ops[id]; ok {
			m.recoverOp(p, id, st)
		}
	}
	return len(fwIDs)+len(opIDs) > 0
}

// excise removes each suspect from this monitor's replicated view, renders a
// ChannelDead verdict on its channel, and disseminates OpCoreDown so every
// surviving monitor's replica — and therefore every future multicast tree —
// drops the dead core. Dissemination reuses the ordinary one-phase membership
// path by self-submitting a local request; it runs as its own operation, with
// its own deadline, on the next loop iteration.
func (m *Monitor) excise(p *sim.Proc, suspects []topo.CoreID) {
	for _, s := range suspects {
		if !m.view[s] {
			continue
		}
		m.view[s] = false
		m.out[s].MarkDead()
		m.stats.Excised++
		m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubMonitor, int32(m.Core), "monitor.excise", 0, uint64(s))
		op := Op{Kind: OpCoreDown, ID: m.nextOpID(), Origin: m.Core, Bytes: uint64(s)}
		m.local.Push(&localReq{op: op, protocol: NUMAAware, fut: sim.NewFuture[bool](m.net.Eng)})
		for _, fn := range m.net.onExcise {
			fn(p, m.Core, s)
		}
	}
}

// recoverOp handles an expired initiator phase: excise the non-responders,
// re-plan over the survivors, and re-run the current phase with a doubled
// deadline. Operations out of recovery budget fail; single-target operations
// (ping, capability transfer) cannot be re-planned and fail immediately.
func (m *Monitor) recoverOp(p *sim.Proc, id uint64, st *opState) {
	m.stats.Recoveries++
	m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubMonitor, int32(m.Core), "monitor.recover_op", id, uint64(st.recoveries+1))
	m.excise(p, sortedCores(st.pending))
	st.recoveries++
	if st.recoveries > maxRecoveries || st.req.op.Kind == OpNone {
		delete(m.ops, id)
		m.finish(p, st, false)
		return
	}
	st.plan = m.plan(st.req.protocol, st.req.targets)
	if len(st.plan) == 0 {
		// Every remaining participant is gone; the operation completes with
		// whatever the survivors (here: only the initiator) agreed on: the
		// votes so far in phase 1, the decision in phase 2.
		delete(m.ops, id)
		m.finish(p, st, st.allYes && st.phase == 1 || st.decision && st.phase == 2)
		return
	}
	m.disseminate(p, st)
}

// recoverFwd handles an expired aggregation: the silent children are excised
// and the aggregate response goes upward with what the survivors said — a
// dead child has no TLB to flush and no locks worth honoring, so it neither
// blocks an ack nor turns a vote into an abort.
func (m *Monitor) recoverFwd(p *sim.Proc, id uint64, fw *fwdState) {
	m.stats.Recoveries++
	m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubMonitor, int32(m.Core), "monitor.recover_fwd", id, 0)
	m.excise(p, sortedCores(fw.pending))
	m.answerUp(p, fw)
}
