package monitor

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/stats"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

// Protocol selects how a coordinated operation is disseminated (§5.1).
type Protocol int

// Dissemination protocols.
const (
	// Unicast sends an individual message to every participant.
	Unicast Protocol = iota
	// Multicast uses the two-level socket tree in ascending socket order.
	Multicast
	// NUMAAware uses the SKB's multicast tree: aggregation nodes ordered by
	// decreasing latency, channel buffers homed at the receivers.
	NUMAAware
)

func (p Protocol) String() string {
	switch p {
	case Unicast:
		return "unicast"
	case Multicast:
		return "multicast"
	case NUMAAware:
		return "numa-aware multicast"
	}
	return "?"
}

// Costs of monitor software paths, in cycles (identical across machines;
// machine-specific costs come from topo.CostParams).
const (
	marshalCost  = 60  // building and marshaling one protocol message
	marshalDelta = 12  // re-targeting an already-marshaled message in a fan-out
	loopCost     = 8   // one pass of the dispatch loop bookkeeping
	idleSleep    = 140 // gap between idle polling sweeps
	idleToBlock  = 40  // idle sweeps before the monitor blocks
	monitorSlots = 64  // inter-monitor channel ring size
	recvBurst    = 4   // messages drained per peer per dispatch-loop pass
)

// Stats counts one monitor's activity.
type Stats struct {
	Handled   uint64 // protocol messages dispatched
	Initiated uint64 // operations started on behalf of local processes
	Commits   uint64
	Aborts    uint64
	Wakeups   uint64 // times this monitor was woken from its blocked state

	// Fault-tolerance counters (only move when Network.OpTimeout > 0).
	Excised    uint64 // cores this monitor declared dead and removed from its view
	Recoveries uint64 // deadline expiries that triggered a recovery round
	Strays     uint64 // late responses for operations already recovered or done
	Dropped    uint64 // sends abandoned on a dead channel (ChannelDead verdict)
}

// Hooks let higher layers (the VM system, the capability system) plug
// machine state changes into the agreement protocols. All hooks run in the
// context of the handling monitor's proc and may charge additional time.
type Hooks struct {
	// Invalidate is called on every participant (and the origin) of an unmap
	// operation, after the TLB-invalidate cost has been charged.
	Invalidate func(p *sim.Proc, core topo.CoreID, op Op)
	// Prepare validates a two-phase operation on a participant; returning
	// false votes to abort.
	Prepare func(p *sim.Proc, core topo.CoreID, op Op) bool
	// Apply commits a two-phase operation on a participant.
	Apply func(p *sim.Proc, core topo.CoreID, op Op)
}

// Network is the distributed system of monitors on one machine.
type Network struct {
	Eng   *sim.Engine
	Sys   *cache.System
	Kern  *kernel.System
	KB    *skb.KB
	Hooks Hooks

	// OpTimeout, when non-zero, arms a deadline on every outstanding
	// protocol phase and on every pending aggregation: a phase that does not
	// complete within its deadline triggers recovery (suspect excision,
	// re-planning, re-sending). Zero keeps the legacy fail-free behavior,
	// cycle-identical to builds without fault tolerance.
	OpTimeout sim.Time

	monitors []*Monitor
	failed   []bool // ground truth of fail-stopped cores (set by FailStop)

	// onExcise hooks run in the excising monitor's proc context whenever a
	// monitor removes a core from its replicated view. Services layered on
	// the monitor network (e.g. the replicated kvstore's fail-over) register
	// here: view excision IS their failure notification.
	onExcise []func(p *sim.Proc, observer, excised topo.CoreID)

	// opHist is the end-to-end latency distribution of coordinated
	// operations, observed at every initiator-side completion.
	opHist *stats.Histogram
}

// localReq is a request handed to a monitor by a process on its core.
type localReq struct {
	op        Op
	protocol  Protocol
	targets   []topo.CoreID
	fut       *sim.Future[bool]
	isCap     bool   // capability transfer rather than ping
	capRights uint64 // rights carried by a transferred capability
}

// opState tracks an operation this monitor initiated.
type opState struct {
	req        *localReq
	plan       []sendPlan           // dissemination plan, reused for the decision phase
	pending    map[topo.CoreID]bool // direct targets yet to respond in this phase
	allYes     bool
	decision   bool     // 2PC: commit (true) or abort
	phase      int      // 1 = prepare/shootdown, 2 = decision
	deadline   sim.Time // phase deadline; 0 = none (fault tolerance off)
	recoveries int      // recovery rounds already spent on this operation
	started    sim.Time // initiation time, for the op-latency histogram/span
}

// fwdState tracks a message an aggregation node forwarded to its children.
type fwdState struct {
	parent   topo.CoreID // who gets the aggregate response
	op       Op
	pending  map[topo.CoreID]bool // children yet to respond
	allYes   bool
	ackKind  MsgKind  // aggregate response type (ack or vote)
	deadline sim.Time // aggregation deadline; 0 = none
}

// planPending builds the response-tracking set for a dissemination plan.
func planPending(plan []sendPlan) map[topo.CoreID]bool {
	pend := make(map[topo.CoreID]bool, len(plan))
	for _, s := range plan {
		pend[s.to] = true
	}
	return pend
}

// corePending builds a response-tracking set from explicit cores.
func corePending(cores []topo.CoreID) map[topo.CoreID]bool {
	pend := make(map[topo.CoreID]bool, len(cores))
	for _, c := range cores {
		pend[c] = true
	}
	return pend
}

type lockRange struct {
	base  memory.Addr
	bytes uint64
	opID  uint64
}

// Monitor is the coordination process of one core.
type Monitor struct {
	Core topo.CoreID
	net  *Network
	CS   *caps.CSpace

	in    map[topo.CoreID]*urpc.Channel
	out   map[topo.CoreID]*urpc.Channel
	peers []topo.CoreID // deterministic poll order

	local    *sim.Queue[*localReq]
	proc     *sim.Proc
	parked   bool
	notified bool   // a wake found the loop running; cleared every pass
	down     bool   // core powered off (§3.3 hotplug)
	dead     bool   // core fail-stopped (fault injection); state is frozen
	view     []bool // replicated membership: which cores this monitor believes online
	seq      uint64

	ops   map[uint64]*opState
	fwd   map[uint64]*fwdState
	locks []lockRange
	stats Stats
}

// NewNetwork boots one monitor per core, builds the full URPC mesh between
// them (channel buffers homed at each receiver, per the SKB's allocation
// advice) and starts the monitor dispatch loops.
func NewNetwork(e *sim.Engine, sys *cache.System, kern *kernel.System, kb *skb.KB, hooks Hooks) *Network {
	n := &Network{Eng: e, Sys: sys, Kern: kern, KB: kb, Hooks: hooks}
	m := sys.Machine()
	n.failed = make([]bool, m.NumCores())
	reg := e.Metrics()
	n.opHist = reg.Histogram("monitor.op_cycles")
	sum := func(field func(*Stats) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, mon := range n.monitors {
				total += field(&mon.stats)
			}
			return total
		}
	}
	reg.CounterFunc("monitor.handled", sum(func(s *Stats) uint64 { return s.Handled }))
	reg.CounterFunc("monitor.initiated", sum(func(s *Stats) uint64 { return s.Initiated }))
	reg.CounterFunc("monitor.commits", sum(func(s *Stats) uint64 { return s.Commits }))
	reg.CounterFunc("monitor.aborts", sum(func(s *Stats) uint64 { return s.Aborts }))
	reg.CounterFunc("monitor.wakeups", sum(func(s *Stats) uint64 { return s.Wakeups }))
	reg.CounterFunc("monitor.excised", sum(func(s *Stats) uint64 { return s.Excised }))
	reg.CounterFunc("monitor.recoveries", sum(func(s *Stats) uint64 { return s.Recoveries }))
	reg.CounterFunc("monitor.strays", sum(func(s *Stats) uint64 { return s.Strays }))
	reg.CounterFunc("monitor.dropped", sum(func(s *Stats) uint64 { return s.Dropped }))
	for c := 0; c < m.NumCores(); c++ {
		view := make([]bool, m.NumCores())
		for i := range view {
			view[i] = true
		}
		n.monitors = append(n.monitors, &Monitor{
			Core:  topo.CoreID(c),
			net:   n,
			CS:    caps.NewCSpace(fmt.Sprintf("core%d", c)),
			in:    make(map[topo.CoreID]*urpc.Channel),
			out:   make(map[topo.CoreID]*urpc.Channel),
			local: sim.NewQueue[*localReq](e),
			ops:   make(map[uint64]*opState),
			fwd:   make(map[uint64]*fwdState),
			view:  view,
		})
	}
	for a := 0; a < m.NumCores(); a++ {
		for b := 0; b < m.NumCores(); b++ {
			if a == b {
				continue
			}
			ca, cb := topo.CoreID(a), topo.CoreID(b)
			ch := urpc.New(sys, ca, cb, urpc.Options{Slots: monitorSlots, Home: int(kb.AllocAdvice(cb))})
			n.monitors[a].out[cb] = ch
			n.monitors[b].in[ca] = ch
			if sys.LocalCore(cb) && !sys.LocalCore(ca) {
				// Parallel boot: the sender's replica cannot unpark this
				// monitor (its proc lives here), so the delivered ring line
				// doubles as the IPI — the cross-partition analogue of
				// Network.wake, with the same notification cost.
				t := n.monitors[b]
				ipi := m.Costs.IPIDeliver
				ch.OnRemoteDeliver = func() {
					if !t.parked {
						t.notified = true
						return
					}
					t.stats.Wakeups++
					e.After(ipi, func() { e.Wake(t.proc) })
				}
			}
		}
	}
	for _, mon := range n.monitors {
		// Build the poll order by walking core ids in ascending order, never
		// by ranging over the channel map: the poll order feeds the event
		// queue every dispatch pass, so it must be visibly deterministic
		// rather than map-iteration order laundered through a sort.
		for c := 0; c < m.NumCores(); c++ {
			if _, ok := mon.in[topo.CoreID(c)]; ok {
				mon.peers = append(mon.peers, topo.CoreID(c))
			}
		}
		if !sys.LocalCore(mon.Core) {
			// Parallel boot: a remote core's monitor exists as structure (its
			// channels are the local ends of the mesh) but never runs here —
			// its dispatch loop runs in its own partition's replica.
			continue
		}
		mon := mon
		mon.proc = e.Spawn(fmt.Sprintf("monitor%d", mon.Core), mon.run)
	}
	return n
}

// Monitor returns the monitor of core c.
func (n *Network) Monitor(c topo.CoreID) *Monitor { return n.monitors[c] }

// OnExcise registers a hook invoked (in the excising monitor's proc context,
// in registration order) each time any monitor excises a core from its
// replicated view. A core's death is typically observed by several monitors;
// the hook fires once per observer, so subscribers dedup by excised core.
func (n *Network) OnExcise(fn func(p *sim.Proc, observer, excised topo.CoreID)) {
	n.onExcise = append(n.onExcise, fn)
}

// Stats returns a copy of the monitor's counters.
func (m *Monitor) Stats() Stats { return m.stats }

// wake ensures the target core's monitor notices new input, charging the
// notification cost if it had blocked. A running monitor is only flagged, so
// it takes one more pass before it may park.
func (n *Network) wake(p *sim.Proc, target topo.CoreID) {
	t := n.monitors[target]
	if !t.parked {
		t.notified = true
		return
	}
	t.stats.Wakeups++
	p.Sleep(n.Sys.Machine().Costs.IPIDeliver)
	p.Unpark(t.proc)
}

// send transmits a protocol message to another monitor and wakes it. With
// fault tolerance enabled the send carries a deadline: a channel whose
// receiver died stops draining its ring, and once it fills the sender backs
// off, times out, and abandons the message rather than spinning forever. A
// channel already carrying a ChannelDead verdict fails immediately.
func (m *Monitor) send(p *sim.Proc, to topo.CoreID, msg urpc.Message) {
	p.Sleep(marshalCost)
	w := urpc.Spin
	if m.net.OpTimeout > 0 {
		w = urpc.Deadline(m.net.OpTimeout)
	}
	if m.out[to].Send(p, []urpc.Message{msg}, w) == 0 {
		m.stats.Dropped++
		return
	}
	m.net.wake(p, to)
}

// batchMsg is one destination of a batched fan-out.
type batchMsg struct {
	to  topo.CoreID
	msg urpc.Message
}

// sendMany transmits a dissemination fan-out as one pipelined burst: the
// message body is marshaled once (marshalCost) and each further destination
// pays only the re-targeting delta; all ring writes are issued back-to-back
// and receiver wakeups are delivered after the last write, so a parked peer
// is notified exactly once per burst. With fault tolerance armed, every send
// carries its own deadline and ChannelDead verdict handling, so the burst
// falls back to the per-message path (keeping the fault machinery — and its
// cycle accounting — unchanged).
func (m *Monitor) sendMany(p *sim.Proc, msgs []batchMsg) {
	if m.net.OpTimeout > 0 {
		for _, bm := range msgs {
			m.send(p, bm.to, bm.msg)
		}
		return
	}
	for i, bm := range msgs {
		if i == 0 {
			p.Sleep(marshalCost)
		} else {
			p.Sleep(marshalDelta)
		}
		m.out[bm.to].Send(p, []urpc.Message{bm.msg}, urpc.Spin)
	}
	for _, bm := range msgs {
		m.net.wake(p, bm.to)
	}
}

// run is the monitor dispatch loop: poll local requests and every incoming
// channel; block after a sustained idle period and wait for notification.
func (m *Monitor) run(p *sim.Proc) {
	p.SetDaemon(true)
	costs := &m.net.Sys.Machine().Costs
	idle := 0
	var burst [recvBurst]urpc.Message
	if m.parked {
		// Restored from a checkpoint taken while blocked: this first resume
		// is the interrupt-driven wakeup, so replay exactly the charges of
		// the post-Park path below — that equivalence is what makes a
		// restored run byte-identical to an uninterrupted one.
		m.parked = false
		p.Sleep(costs.Trap + costs.CSwitch)
		for m.down && len(m.fwd) == 0 && len(m.ops) == 0 {
			p.Sleep(coreDownParkCost)
			m.parked = true
			p.Park()
			m.parked = false
		}
	}
	for {
		progress := false
		m.notified = false
		if req, ok := m.local.TryPop(); ok {
			m.startOp(p, req)
			progress = true
		}
		for _, src := range m.peers {
			// Burst dequeue: one check charge drains up to recvBurst queued
			// messages from this peer. The burst is capped so one chatty peer
			// cannot starve the others in a single pass.
			n := m.in[src].Recv(p, burst[:], urpc.Poll)
			for i := 0; i < n; i++ {
				m.dispatch(p, src, burst[i])
			}
			if n > 0 {
				progress = true
			}
		}
		if m.net.OpTimeout > 0 && m.checkDeadlines(p) {
			progress = true
		}
		p.Sleep(loopCost)
		if progress {
			idle = 0
			continue
		}
		idle++
		// With fault tolerance armed, a monitor with outstanding protocol
		// state must keep polling: its deadlines are its failure detector,
		// and a blocked monitor would only wake on a message that a dead
		// peer will never send.
		if idle < idleToBlock || (m.net.OpTimeout > 0 && len(m.ops)+len(m.fwd) > 0) {
			p.Sleep(idleSleep)
			continue
		}
		if m.notified {
			// A wake arrived during this pass, possibly for a ring the pass
			// had already polled: poll again instead of parking past it.
			continue
		}
		m.parked = true
		p.Park()
		m.parked = false
		idle = 0
		// Being re-dispatched after an interrupt-driven wakeup.
		p.Sleep(costs.Trap + costs.CSwitch)
		for m.down && len(m.fwd) == 0 && len(m.ops) == 0 {
			// Powered off: sleep until the PowerOn IPI (§3.3). A monitor
			// that is still the aggregation root of an in-flight operation
			// (or initiated one) drains that duty first — the membership
			// change that took it offline may have raced with a protocol
			// round that still counts on its responses.
			p.Sleep(coreDownParkCost)
			m.parked = true
			p.Park()
			m.parked = false
		}
	}
}

// dispatch demultiplexes one protocol message.
func (m *Monitor) dispatch(p *sim.Proc, src topo.CoreID, raw urpc.Message) {
	m.stats.Handled++
	p.Sleep(m.net.Sys.Machine().Costs.Dispatch)
	kind, op, aux := unwire(raw)
	switch kind {
	case MsgShootdown, MsgShootdownFwd:
		m.handleShootdown(p, src, op, aux, kind == MsgShootdownFwd)
	case MsgShootdownAck:
		m.handleAck(p, src, op, func(st *opState) {
			m.stats.Commits++
			m.opEnd(p, op, st.started, true)
			st.req.fut.Complete(true)
		})
	case MsgPrepare, MsgPrepareFwd:
		m.handlePrepare(p, src, op, aux, kind == MsgPrepareFwd)
	case MsgVote:
		m.handleVote(p, src, op, aux)
	case MsgDecision, MsgDecisionFwd:
		m.handleDecision(p, src, op, aux, kind == MsgDecisionFwd)
	case MsgDecisionAck:
		m.handleAck(p, src, op, func(st *opState) {
			m.finish2PC(p, st)
		})
	case MsgCapSend:
		m.handleCapSend(p, src, op, aux)
	case MsgCapAck:
		m.handleAck(p, src, op, func(st *opState) {
			m.opEnd(p, op, st.started, aux == 1)
			st.req.fut.Complete(aux == 1)
		})
	case MsgPing:
		m.send(p, op.Origin, wire(MsgPong, op, 0))
	case MsgPong:
		m.handleAck(p, src, op, func(st *opState) {
			m.opEnd(p, op, st.started, true)
			st.req.fut.Complete(true)
		})
	default:
		panic(fmt.Sprintf("monitor%d: unknown message %v from %d", m.Core, kind, src))
	}
}

// handleAck consumes one response toward the current phase of an operation
// this monitor initiated; done runs when the phase completes. Responses are
// tracked per responder, so a duplicate (a slow core answering both the
// original and a recovery re-send) never completes a phase early.
func (m *Monitor) handleAck(p *sim.Proc, src topo.CoreID, op Op, done func(*opState)) {
	st, ok := m.ops[op.ID]
	if !ok {
		// Response for an aggregate this core forwarded.
		m.handleFwdAck(p, src, op)
		return
	}
	delete(st.pending, src)
	if len(st.pending) == 0 {
		delete(m.ops, op.ID)
		done(st)
	}
}

func (m *Monitor) handleFwdAck(p *sim.Proc, src topo.CoreID, op Op) {
	fw, ok := m.fwd[op.ID]
	if !ok {
		// With fault tolerance, a late response for an aggregation already
		// recovered (answered upward on timeout) is expected; without it,
		// it is a protocol bug.
		if m.net.OpTimeout > 0 {
			m.stats.Strays++
			return
		}
		panic(fmt.Sprintf("monitor%d: stray ack for op %#x", m.Core, op.ID))
	}
	delete(fw.pending, src)
	if len(fw.pending) == 0 {
		delete(m.fwd, op.ID)
		m.fwdEnd(p, op, fw.allYes)
		aux := uint64(1)
		if fw.ackKind == MsgVote {
			aux = 0
			if fw.allYes {
				aux = 1
			}
		}
		m.send(p, fw.parent, wire(fw.ackKind, op, aux))
	}
}
