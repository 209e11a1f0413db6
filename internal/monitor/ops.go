package monitor

import (
	"cmp"
	"fmt"
	"slices"

	"multikernel/internal/caps"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// ---------------------------------------------------------------------------
// Trace spans
//
// Coordinated operations overlap freely (pipelined retypes, concurrent
// recovery rounds), so they render as async spans keyed by operation ID
// rather than stack-nested Begin/End pairs. Aggregation-node forwarding gets
// its own span under a distinct id namespace (fwdIDBit | aggregator core), so
// a multicast shootdown shows as an initiator span with one child span per
// aggregation node.

// fwdIDBit separates forwarding-span ids from initiator-span ids.
const fwdIDBit = uint64(1) << 63

// opName returns the static span name of an operation kind.
func opName(k OpKind) string {
	switch k {
	case OpUnmap:
		return "monitor.unmap"
	case OpRetype:
		return "monitor.retype"
	case OpRevoke:
		return "monitor.revoke"
	case OpCoreDown:
		return "monitor.coredown"
	case OpCoreUp:
		return "monitor.coreup"
	}
	return "monitor.ping"
}

// opBegin opens the initiator-side span of a coordinated operation and
// returns its start time.
func (m *Monitor) opBegin(p *sim.Proc, op Op) sim.Time {
	m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.AsyncBegin, trace.SubMonitor, int32(m.Core), opName(op.Kind), op.ID, 0)
	return p.Now()
}

// opEnd closes the initiator-side span (arg 1 = success) and feeds the
// operation's end-to-end latency into the registry histogram.
func (m *Monitor) opEnd(p *sim.Proc, op Op, started sim.Time, ok bool) {
	m.net.opHist.Observe(uint64(p.Now() - started))
	m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.AsyncEnd, trace.SubMonitor, int32(m.Core), opName(op.Kind), op.ID, b2u(ok))
}

// fwdID is the span id of this aggregation node's forwarding of op.
func (m *Monitor) fwdID(op Op) uint64 {
	return fwdIDBit | uint64(m.Core)<<48 | op.ID&(1<<48-1)
}

// fwdBegin opens an aggregation-node forwarding span.
func (m *Monitor) fwdBegin(p *sim.Proc, op Op) {
	m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.AsyncBegin, trace.SubMonitor, int32(m.Core), "monitor.fwd", m.fwdID(op), 0)
}

// fwdEnd closes it. Only a prepare aggregation carries a vote (arg 1 = it
// and all its children voted yes); shootdown and decision aggregation spans
// close with arg 0.
func (m *Monitor) fwdEnd(p *sim.Proc, op Op, allYes bool) {
	m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.AsyncEnd, trace.SubMonitor, int32(m.Core), "monitor.fwd", m.fwdID(op), b2u(allYes))
}

// b2u encodes a flag as a wire or trace word.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// aux-word layout for dissemination messages: low 16 bits carry the child
// mask (relative to the receiver's socket base core), bit 16 carries the
// commit flag on decision messages, and bits 17–62 carry the relay mask of a
// hierarchical dissemination — the absolute socket IDs whose aggregation
// nodes the receiving region head must contact on the initiator's behalf.
// Bit 63 (auxRelayLeaf) marks a relay mask whose sockets participate with
// their aggregation core only — the per-socket-delegate dissemination of the
// §3.3 shared-replica optimization — rather than with every online core.
const (
	auxMaskBits   = 16
	auxCommit     = 1 << auxMaskBits
	auxRelayShift = 17
	auxRelayLeaf  = uint64(1) << 63
	// hierFanout bounds the initiator's direct sends on large machines: with
	// more remote sockets than this, dissemination goes through the SKB's
	// three-level tree (source -> region heads -> socket aggregators). The
	// paper machines (<= 8 sockets) never hit it, keeping their protocol
	// traffic identical.
	hierFanout = 8
	// maxRelaySockets is the widest machine whose socket IDs fit the relay
	// mask; beyond it the planner falls back to the flat two-level tree.
	maxRelaySockets = 63 - auxRelayShift
)

// sendPlan is one direct transmission of a dissemination round.
type sendPlan struct {
	to   topo.CoreID
	mask uint64 // relative child mask the receiver must forward to
}

// relMask builds a socket-relative bitmask for the given children.
func (m *Monitor) relMask(children []topo.CoreID) uint64 {
	mach := m.net.Sys.Machine()
	var mask uint64
	for _, c := range children {
		rel := int(c) % mach.CoresPerSocket
		if rel >= auxMaskBits {
			panic("monitor: socket too wide for child mask encoding")
		}
		mask |= 1 << uint(rel)
	}
	return mask
}

// childPlans expands a relative child mask into the sends an aggregation
// node owes those cores of its own socket.
func (m *Monitor) childPlans(mask uint64) []sendPlan {
	mach := m.net.Sys.Machine()
	base := int(mach.Socket(m.Core)) * mach.CoresPerSocket
	var out []sendPlan
	for i := 0; i < mach.CoresPerSocket; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, sendPlan{to: topo.CoreID(base + i)})
		}
	}
	return out
}

// plan computes the direct sends for disseminating to targets under the
// given protocol. A nil target list means every core.
func (m *Monitor) plan(protocol Protocol, targets []topo.CoreID) []sendPlan {
	full := targets == nil
	if full {
		targets = m.onlineView()
	} else {
		// Filter an explicit target list through the replicated membership
		// view: offline cores have no TLBs to shoot down and no monitor to
		// answer (§3.3).
		kept := targets[:0:0]
		for _, t := range targets {
			if m.view[t] {
				kept = append(kept, t)
			}
		}
		targets = kept
	}
	switch protocol {
	case Unicast:
		var out []sendPlan
		for _, t := range targets {
			if t != m.Core {
				out = append(out, sendPlan{to: t})
			}
		}
		return out
	case Multicast, NUMAAware:
		if m.useHier() && (full || m.leaderSet(targets)) {
			return m.hierPlan(protocol, targets, !full)
		}
		tree := m.net.KB.MulticastTree(m.Core, targets)
		groups := append([]skb.Group(nil), tree.Groups...)
		if protocol == Multicast {
			// Plain multicast ignores latency ordering: ascending socket.
			slices.SortStableFunc(groups, func(a, b skb.Group) int { return cmp.Compare(a.Agg, b.Agg) })
		}
		var out []sendPlan
		for _, g := range groups {
			out = append(out, sendPlan{to: g.Agg, mask: m.relMask(g.Children)})
		}
		for _, c := range tree.Local {
			out = append(out, sendPlan{to: c})
		}
		return out
	}
	panic("monitor: unknown protocol")
}

// useHier reports whether full-machine dissemination should route over the
// hierarchical multicast tree: only on machines with more remote sockets than
// the initiator fanout, and only when every socket ID fits the relay mask.
func (m *Monitor) useHier() bool {
	ns := m.net.Sys.Machine().NSockets
	return ns > hierFanout+1 && ns <= maxRelaySockets
}

// leaderSet reports whether an explicit target list is a per-socket-delegate
// set: at most one target per socket, each the socket's lowest online core —
// exactly the aggregation node a relaying region head would pick on the
// initiator's behalf, which is what makes the set hierarchy-routable.
func (m *Monitor) leaderSet(targets []topo.CoreID) bool {
	mach := m.net.Sys.Machine()
	seen := make([]bool, mach.NSockets)
	for _, c := range targets {
		s := mach.Socket(c)
		if seen[s] {
			return false
		}
		seen[s] = true
		for _, o := range mach.CoresOf(s) {
			if m.view[o] {
				if o != c {
					return false
				}
				break
			}
		}
	}
	return true
}

// hierPlan computes the direct sends of a hierarchical dissemination: one
// message per region head, carrying both the head's socket-local child mask
// and the relay mask of the region's other sockets. With leaf set, relayed
// sockets participate with their aggregation core only.
func (m *Monitor) hierPlan(protocol Protocol, targets []topo.CoreID, leaf bool) []sendPlan {
	mach := m.net.Sys.Machine()
	tree := m.net.KB.HierMulticastTree(m.Core, targets, hierFanout)
	regions := append([]skb.Region(nil), tree.Regions...)
	if protocol == Multicast {
		slices.SortStableFunc(regions, func(a, b skb.Region) int { return cmp.Compare(a.Agg, b.Agg) })
	}
	var out []sendPlan
	for _, r := range regions {
		mask := m.relMask(r.Children)
		for _, g := range r.Subs {
			mask |= 1 << uint(auxRelayShift+int(mach.Socket(g.Agg)))
		}
		if leaf && len(r.Subs) > 0 {
			mask |= auxRelayLeaf
		}
		out = append(out, sendPlan{to: r.Agg, mask: mask})
	}
	for _, c := range tree.Local {
		out = append(out, sendPlan{to: c})
	}
	return out
}

// relayPlans expands a message's relay-socket mask into the sends a region
// head owes the region's other sockets: each named socket's lowest online
// core becomes its aggregation node, with the socket's remaining online cores
// as its child mask (none under the leaf flag). Resolved against the head's
// replicated view, which in the fail-free dissemination path agrees with the
// initiator's.
func (m *Monitor) relayPlans(aux uint64) []sendPlan {
	relay := aux >> auxRelayShift & (1<<uint(maxRelaySockets) - 1)
	if relay == 0 {
		return nil
	}
	mach := m.net.Sys.Machine()
	var out []sendPlan
	for s := 0; relay != 0; s, relay = s+1, relay>>1 {
		if relay&1 == 0 {
			continue
		}
		var cs []topo.CoreID
		for _, c := range mach.CoresOf(topo.SocketID(s)) {
			if m.view[c] {
				cs = append(cs, c)
			}
		}
		if len(cs) == 0 {
			continue
		}
		if aux&auxRelayLeaf != 0 {
			out = append(out, sendPlan{to: cs[0]})
			continue
		}
		out = append(out, sendPlan{to: cs[0], mask: m.relMask(cs[1:])})
	}
	return out
}

// nextOpID mints a network-unique operation ID.
func (m *Monitor) nextOpID() uint64 {
	m.seq++
	return uint64(m.Core)<<32 | m.seq
}

// ---------------------------------------------------------------------------
// Initiation and completion

// startOp begins executing a local request inside the monitor loop. The
// initiator does its own part of the first phase, then disseminates the
// phase to its plan; with nothing to send, the operation is already done.
func (m *Monitor) startOp(p *sim.Proc, req *localReq) {
	m.stats.Initiated++
	op := req.op
	st := &opState{req: req, started: m.opBegin(p, op), phase: 1, allYes: true}
	switch op.Kind {
	case OpNone:
		// Ping or capability transfer: single round trip to the target.
		st.plan = []sendPlan{{to: req.targets[0]}}
	case OpRetype, OpRevoke:
		if !m.tryLock(op) || !m.prepareLocal(p, op) {
			m.finish(p, st, false)
			return
		}
		st.plan = m.plan(req.protocol, req.targets)
	case OpUnmap, OpCoreDown, OpCoreUp:
		// Plan from the pre-operation view (a membership change must still
		// reach the core it removes), then apply locally (§5.1: the origin
		// participates too).
		st.plan = m.plan(req.protocol, req.targets)
		m.invalidateLocal(p, op)
	default:
		panic(fmt.Sprintf("monitor%d: bad op kind %d", m.Core, op.Kind))
	}
	if len(st.plan) == 0 {
		m.finish(p, st, true)
		return
	}
	m.ops[op.ID] = st
	m.disseminate(p, st)
}

// disseminate sends the current phase of an operation this monitor
// initiated to every direct target of its plan, and arms the phase's
// response set and deadline. It starts both protocols, sends the 2PC
// decision, and re-sends a phase after recovery re-planned it.
func (m *Monitor) disseminate(p *sim.Proc, st *opState) {
	op := st.req.op
	kind, aux := MsgShootdown, uint64(0)
	switch {
	case op.Kind == OpNone && st.req.isCap:
		kind, aux = MsgCapSend, st.req.capRights
	case op.Kind == OpNone:
		kind = MsgPing
	case st.phase == 2:
		kind = MsgDecision
		if st.decision {
			aux = auxCommit
		}
	case op.Kind.twoPhase():
		kind = MsgPrepare
	}
	st.pending = planPending(st.plan)
	st.deadline = m.opDeadline(p, st.recoveries)
	m.sendMany(p, st.plan, kind, op, aux)
}

// finish ends an operation this monitor initiated. A two-phase initiator
// applies a commit locally and releases its range lock; then the outcome is
// counted as a commit or an abort (a ping or capability transfer counts
// neither), the operation's span closes and its future resolves.
func (m *Monitor) finish(p *sim.Proc, st *opState, ok bool) {
	op := st.req.op
	if op.Kind.twoPhase() {
		if ok {
			m.applyLocal(p, op)
		}
		m.unlock(op.ID)
	}
	switch {
	case op.Kind == OpNone:
	case ok:
		m.stats.Commits++
	default:
		m.stats.Aborts++
	}
	m.opEnd(p, op, st.started, ok)
	st.req.fut.Complete(ok)
}

// ---------------------------------------------------------------------------
// Participation: one-phase commit (shootdown) and two-phase commit (retype /
// revoke)

func (m *Monitor) invalidateLocal(p *sim.Proc, op Op) {
	if op.Kind == OpCoreDown || op.Kind == OpCoreUp {
		m.applyCoreChange(op)
		return
	}
	p.Sleep(m.net.Sys.Machine().Costs.TLBInval)
	if m.net.Hooks.Invalidate != nil {
		m.net.Hooks.Invalidate(p, m.Core, op)
	}
}

func (m *Monitor) prepareLocal(p *sim.Proc, op Op) bool {
	if m.net.Hooks.Prepare != nil {
		return m.net.Hooks.Prepare(p, m.Core, op)
	}
	return true
}

func (m *Monitor) applyLocal(p *sim.Proc, op Op) {
	if m.net.Hooks.Apply != nil {
		m.net.Hooks.Apply(p, m.Core, op)
	}
}

// participate handles a shootdown, prepare or decision request. The core
// first does its own part: invalidate; lock and prepare; or apply and
// unlock. A request whose aux word names no children and no relay sockets
// is then answered at once. Otherwise this core is an aggregation node: it
// passes the same kind on to its socket-local children and to the relay
// sockets' aggregation nodes, and answers once all of them have.
func (m *Monitor) participate(p *sim.Proc, src topo.CoreID, kind MsgKind, op Op, aux uint64) {
	yes := true
	switch kind {
	case MsgShootdown:
		m.invalidateLocal(p, op)
	case MsgPrepare:
		if yes = m.tryLock(op) && m.prepareLocal(p, op); !yes {
			m.unlock(op.ID)
		}
	case MsgDecision:
		if aux&auxCommit != 0 {
			m.applyLocal(p, op)
		}
		m.unlock(op.ID)
	}
	fan := append(m.childPlans(aux&(auxCommit-1)), m.relayPlans(aux)...)
	if len(fan) == 0 {
		m.send(p, src, wire(kind+1, op, b2u(yes)))
		return
	}
	m.fwd[op.ID] = &fwdState{parent: src, op: op, kind: kind, pending: planPending(fan), allYes: kind == MsgPrepare && yes, deadline: m.fwdDeadline(p)}
	m.fwdBegin(p, op)
	m.sendMany(p, fan, kind, op, aux&auxCommit)
}

// handleAnswer consumes one response. At the initiator it counts toward the
// operation's current phase; responses are tracked per responder, so a
// duplicate (a slow core answering both the original and a recovery
// re-send) never completes a phase early. Completed votes decide a two-phase
// operation; any other completed phase finishes the operation. At an
// aggregation node the response folds into the aggregate, which goes up
// once every child has answered.
func (m *Monitor) handleAnswer(p *sim.Proc, src topo.CoreID, kind MsgKind, op Op, aux uint64) {
	if st, ok := m.ops[op.ID]; ok {
		if kind == MsgVote && aux != 1 {
			st.allYes = false
		}
		delete(st.pending, src)
		switch {
		case len(st.pending) > 0:
		case kind == MsgVote:
			// Phase 1 complete: decide and disseminate.
			st.decision, st.phase = st.allYes, 2
			m.net.Eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubMonitor, int32(m.Core), "monitor.decide", op.ID, b2u(st.decision))
			m.disseminate(p, st)
		default:
			delete(m.ops, op.ID)
			// Every answer but a decision ack carries its outcome; the
			// initiator made that decision itself.
			ok := aux == 1
			if kind == MsgDecisionAck {
				ok = st.decision
			}
			m.finish(p, st, ok)
		}
		return
	}
	fw, ok := m.fwd[op.ID]
	if !ok {
		// With fault tolerance, a late response for an aggregation already
		// recovered (answered upward on timeout) is expected; without it,
		// it is a protocol bug.
		if m.net.OpTimeout > 0 {
			m.stats.Strays++
			return
		}
		panic(fmt.Sprintf("monitor%d: stray %v for op %#x", m.Core, kind, op.ID))
	}
	if kind == MsgVote && aux != 1 {
		fw.allYes = false
	}
	delete(fw.pending, src)
	if len(fw.pending) == 0 {
		m.answerUp(p, fw)
	}
}

// answerUp closes an aggregation and sends its folded answer to the parent:
// a prepare aggregation's vote, or an acknowledgement.
func (m *Monitor) answerUp(p *sim.Proc, fw *fwdState) {
	delete(m.fwd, fw.op.ID)
	m.fwdEnd(p, fw.op, fw.allYes)
	m.send(p, fw.parent, wire(fw.kind+1, fw.op, b2u(fw.allYes || fw.kind != MsgPrepare)))
}

// ---------------------------------------------------------------------------
// Range locks (serializing conflicting 2PC operations)

func (m *Monitor) tryLock(op Op) bool {
	for _, l := range m.locks {
		if l.opID == op.ID {
			return true // already hold it
		}
		if op.Base < l.base+memory.Addr(l.bytes) && l.base < op.Base+memory.Addr(op.Bytes) {
			return false
		}
	}
	m.locks = append(m.locks, lockRange{base: op.Base, bytes: op.Bytes, opID: op.ID})
	return true
}

func (m *Monitor) unlock(opID uint64) {
	for i, l := range m.locks {
		if l.opID == opID {
			m.locks = append(m.locks[:i], m.locks[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Capability transfer (§4.8)

func (m *Monitor) handleCapSend(p *sim.Proc, src topo.CoreID, op Op, aux uint64) {
	// The capability travels in its packed wire form (base, bytes,
	// type/level/rights word).
	c := caps.UnpackWords(uint64(op.Base), op.Bytes, aux)
	// Refuse the transfer if the range is mid-revocation (locked).
	probe := Op{ID: op.ID, Base: c.Base, Bytes: c.Bytes}
	ok := m.tryLock(probe)
	if ok {
		m.unlock(op.ID)
		m.CS.AddRoot(c)
		m.send(p, src, wire(MsgCapAck, op, 1))
		return
	}
	m.send(p, src, wire(MsgCapAck, op, 0))
}

// ---------------------------------------------------------------------------
// Public API (called from application procs)

// submit charges the LRPC into the monitor, enqueues the request and wakes
// the monitor.
func (m *Monitor) submit(p *sim.Proc, req *localReq) *sim.Future[bool] {
	m.net.Kern.Core(m.Core).LRPC(p)
	req.fut = sim.NewFuture[bool](m.net.Eng)
	m.local.Push(req)
	m.net.wake(p, m.Core)
	return req.fut
}

// finishCall awaits the operation and charges the reply LRPC back to the
// calling process.
func (m *Monitor) finishCall(p *sim.Proc, fut *sim.Future[bool]) bool {
	ok := fut.Await(p)
	m.net.Kern.Core(m.Core).LRPC(p)
	return ok
}

// Unmap removes or downgrades the mapping of [base, base+bytes) on the given
// cores (nil = all cores) using the given dissemination protocol, blocking
// the calling process until every TLB is clean. It is the complete unmap
// path of the paper's Figure 7.
func (m *Monitor) Unmap(p *sim.Proc, base memory.Addr, bytes uint64, targets []topo.CoreID, protocol Protocol) bool {
	return m.finishCall(p, m.UnmapAsync(p, base, bytes, targets, protocol))
}

// UnmapAsync is the split-phase form of Unmap: it returns immediately with a
// future the caller may await later (the reply LRPC is not charged).
func (m *Monitor) UnmapAsync(p *sim.Proc, base memory.Addr, bytes uint64, targets []topo.CoreID, protocol Protocol) *sim.Future[bool] {
	op := Op{Kind: OpUnmap, ID: m.nextOpID(), Origin: m.Core, Base: base, Bytes: bytes}
	return m.submit(p, &localReq{op: op, protocol: protocol, targets: targets})
}

// Retype performs a two-phase-committed capability retype of
// [base, base+bytes) across the given cores (nil = all). It reports whether
// the operation committed.
func (m *Monitor) Retype(p *sim.Proc, base memory.Addr, bytes uint64, to caps.Type, level int, targets []topo.CoreID) bool {
	return m.finishCall(p, m.RetypeAsync(p, base, bytes, to, level, targets))
}

// RetypeAsync is the split-phase form of Retype, used for pipelining
// (Figure 8's "cost when pipelining").
func (m *Monitor) RetypeAsync(p *sim.Proc, base memory.Addr, bytes uint64, to caps.Type, level int, targets []topo.CoreID) *sim.Future[bool] {
	op := Op{Kind: OpRetype, ID: m.nextOpID(), Origin: m.Core, Base: base, Bytes: bytes, NewType: to, Level: level}
	return m.submit(p, &localReq{op: op, protocol: NUMAAware, targets: targets})
}

// Revoke performs a two-phase-committed revocation of the capability range.
func (m *Monitor) Revoke(p *sim.Proc, base memory.Addr, bytes uint64, targets []topo.CoreID) bool {
	op := Op{Kind: OpRevoke, ID: m.nextOpID(), Origin: m.Core, Base: base, Bytes: bytes}
	return m.finishCall(p, m.submit(p, &localReq{op: op, protocol: NUMAAware, targets: targets}))
}

// SendCap transfers a capability to the monitor of another core (§4.8),
// refusing if the capability lacks the grant right. It reports whether the
// remote monitor accepted it.
func (m *Monitor) SendCap(p *sim.Proc, to topo.CoreID, c caps.Capability) bool {
	if c.Rights&caps.CanGrant == 0 {
		return false
	}
	w0, w1, w2 := c.PackWords()
	op := Op{Kind: OpNone, ID: m.nextOpID(), Origin: m.Core, Base: memory.Addr(w0), Bytes: w1}
	req := &localReq{op: op, targets: []topo.CoreID{to}, capRights: w2, isCap: true}
	return m.finishCall(p, m.submit(p, req))
}

// Ping measures a monitor-to-monitor round trip, returning its latency.
func (m *Monitor) Ping(p *sim.Proc, to topo.CoreID) sim.Time {
	start := p.Now()
	op := Op{Kind: OpNone, ID: m.nextOpID(), Origin: m.Core}
	m.finishCall(p, m.submit(p, &localReq{op: op, targets: []topo.CoreID{to}}))
	return p.Now() - start
}
