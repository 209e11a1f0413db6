// Package urpc implements user-level RPC channels (paper §4.6): the only
// inter-core communication mechanism in the multikernel. A channel is a ring
// of cache-line-sized slots in shared memory, written by a single sender core
// and polled by a single receiver core. The sender writes a message's payload
// words followed by a sequence word; the receiver polls the sequence word, so
// it can never observe a partially-written message.
//
// All transfer costs emerge from the cache-coherence model: a send
// invalidates the receiver's cached copy of the slot (one interconnect round
// trip) and the receiver's next poll fetches the line from the sender's cache
// (the second round trip) — exactly the two-round-trip fast path the paper
// describes for HyperTransport systems.
//
// The data path is one batch Send and one batch Recv. What either does when
// the ring is full (send) or empty (receive) is named by a Wait: check once,
// spin, poll-then-block, or back off to a deadline. A loop that polls
// rings runs its checks as sim.Proc.Idle steps through a Pass (pass.go),
// which the engine skips while the rings stay empty; a receive that waits
// is such a loop over its one ring.
package urpc

import (
	"fmt"

	"multikernel/internal/cache"
	"multikernel/internal/memory"
	"multikernel/internal/metrics"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/trace"
)

// PayloadWords is the number of 64-bit payload words per message; the eighth
// word of the cache line carries the sequence number.
const PayloadWords = 7

// Message is one cache-line-sized URPC message.
type Message [PayloadWords]uint64

// DefaultSlots is the ring size used when none is specified — the queue
// length of 16 the paper uses for pipelined throughput measurements.
const DefaultSlots = 16

// Software-path costs in cycles, charged on top of the coherence transfers.
const (
	sendSetupCost = 14 // channel bookkeeping before the line write
	recvCheckCost = 10 // poll-loop check and branch
	recvCopyCost  = 18 // copying the payload out and advancing state
	pollGap       = 25 // cycles between successive idle polls
)

// maxBackoffGap caps the exponential poll backoff of Deadline waits.
const maxBackoffGap = 1600

// Wait is the idle policy of one Send or Recv: what the caller does while
// the ring is full (send) or empty (receive). The zero Wait is Poll.
type Wait struct {
	mode waitMode
	d    sim.Time
}

type waitMode uint8

const (
	modePoll waitMode = iota
	modeSpin
	modeWindow
	modeDeadline
)

var (
	// Poll checks once and never waits.
	Poll = Wait{mode: modePoll}
	// Spin re-checks every pollGap cycles until it succeeds. It ignores a
	// Dead verdict: this is the dedicated-polling mode of the microbenchmarks.
	Spin = Wait{mode: modeSpin}
)

// Window spins for d cycles, then parks until the sender's notify IPI (the
// poll-then-block strategy of §5.2). Senders never park: a send under Window
// spins like Spin.
func Window(d sim.Time) Wait { return Wait{modeWindow, d} }

// Deadline re-checks with exponential backoff (pollGap doubling up to
// maxBackoffGap, each re-check counted in "urpc.retries") and gives up d
// cycles after the call, counting "urpc.timeouts" — the fail-stopped peer
// signature. A send under Deadline on a channel marked Dead pushes nothing.
// The fault-free fast path is cycle-identical to Spin.
func Deadline(d sim.Time) Wait { return Wait{modeDeadline, d} }

// Channel is a unidirectional point-to-point URPC channel.
type Channel struct {
	sys      *cache.System
	eng      *sim.Engine
	Sender   topo.CoreID
	Receiver topo.CoreID

	ring  memory.Region // slots lines
	ack   memory.Region // one line: receiver's consumed count
	slots int

	sendSeq   uint64 // next sequence number to send (starts at 1)
	recvSeq   uint64 // next sequence number to receive
	sendAcked uint64 // sender's view of receiver progress (from the ack line)
	published uint64 // receiver progress as last written to the ack line
	prefetch  bool
	holdAck   bool // receive paths defer ack publication to ackConsumed

	blocked *sim.Proc // receiver parked awaiting notification, if any
	dead    bool      // peer declared fail-stopped; sends are refused
	mut     Mutation  // deliberate protocol defect for checker self-tests

	// OnRemoteDeliver, when set on the receiver's replica of a channel whose
	// endpoints live in different ParallelEngine partitions, runs after each
	// cross-partition ring-line delivery — the hook services (kv, monitors)
	// use to wake their dispatch proc, standing in for the sender-side
	// eng.Wake they would have issued under a single engine. Never invoked on
	// a serial engine or an intra-partition channel.
	OnRemoteDeliver func()

	// id is the channel's engine-unique serial; flow-event ids are
	// id<<32|seq, linking a send on the sender core to its receive on the
	// receiver core in exported traces.
	id uint64

	// Registry handles, shared by all channels of one engine.
	mSent, mReceived, mFullStall *metrics.Counter
	mNotifies, mTimeouts         *metrics.Counter
	mRetries                     *metrics.Counter

	// wait owns the receiver's waits, made at its first one.
	wait *recvWait
}

// Options configure channel construction.
type Options struct {
	// Slots is the ring size in messages; 0 means DefaultSlots.
	Slots int
	// Home is the NUMA socket for the ring buffer; -1 homes it on the
	// receiver's socket (the NUMA-aware default from §5.1).
	Home int
	// Prefetch enables receiver-side prefetching of the next slot,
	// trading single-message latency for pipelined throughput (§4.6).
	Prefetch bool
}

// Mutation selects a deliberate protocol defect. The schedule-exploration
// checker's self-tests (internal/check) arm these to prove the transport
// invariants actually bite: a checker that cannot catch a known-planted bug
// is not guarding anything. MutNone (the zero value) is the correct protocol
// and costs nothing.
type Mutation uint8

const (
	// MutNone runs the correct protocol.
	MutNone Mutation = iota
	// MutAckOverpublish publishes receiver progress one message beyond what
	// was actually consumed, silently granting the sender a ring slot whose
	// previous occupant was never delivered.
	MutAckOverpublish
	// MutDropNotify loses the parked-receiver wakeup: the sender believes the
	// notification was delivered, but the receiver stays parked.
	MutDropNotify
)

// Mutate arms a deliberate protocol defect (checker self-tests only).
func (c *Channel) Mutate(m Mutation) { c.mut = m }

// New creates a channel from sender to receiver over the given cache system.
func New(sys *cache.System, sender, receiver topo.CoreID, opts Options) *Channel {
	slots := opts.Slots
	if slots == 0 {
		slots = DefaultSlots
	}
	if slots < 2 {
		panic("urpc: channel needs at least 2 slots")
	}
	home := topo.SocketID(opts.Home)
	if opts.Home < 0 {
		home = sys.Machine().Socket(receiver)
	}
	eng := sys.Engine()
	reg := eng.Metrics()
	c := &Channel{
		sys:        sys,
		eng:        eng,
		Sender:     sender,
		Receiver:   receiver,
		ring:       sys.Memory().AllocLines(slots, home),
		ack:        sys.Memory().AllocLines(1, home),
		slots:      slots,
		prefetch:   opts.Prefetch,
		id:         eng.Serial(),
		mSent:      reg.Counter("urpc.sent"),
		mReceived:  reg.Counter("urpc.received"),
		mFullStall: reg.Counter("urpc.full_stalls"),
		mNotifies:  reg.Counter("urpc.notifies"),
		mTimeouts:  reg.Counter("urpc.timeouts"),
		mRetries:   reg.Counter("urpc.retries"),
	}
	// A one-time geometry record: the transport checker needs each channel's
	// ring size to verify that no slot is reused before its ack.
	eng.Tracer().Emit(uint64(eng.Now()), trace.Instant, trace.SubURPC, int32(sender), "urpc.chan", c.id<<32, uint64(slots))
	// Parallel boot: when sender and receiver live in different partitions,
	// the ring mirrors forward (writer: sender) and the ack line mirrors back
	// (writer: receiver). Both calls are no-ops on a serial engine or when
	// the endpoints share a partition. The construction runs identically in
	// every replica, so region registration order — the cross-replica
	// addressing scheme — lines up by construction.
	sys.ShareRegion(c.ring, sender, receiver, c.remoteArrival)
	sys.ShareRegion(c.ack, receiver, sender, nil)
	return c
}

// remoteArrival runs in the receiver's replica after a cross-partition ring
// line lands. It plays the sender's half of the poll-then-block protocol:
// a parked receiver gets the IPI-modeled wakeup notify would have sent, and
// the service-level hook (if any) runs so dispatch loops parked outside the
// channel learn about the arrival.
func (c *Channel) remoteArrival() {
	if c.OnRemoteDeliver != nil {
		c.OnRemoteDeliver()
	}
	c.wakeParked()
}

func (c *Channel) slotAddr(seq uint64) memory.Addr {
	return c.ring.LineAt(int(seq % uint64(c.slots)))
}

// seqWord is the address of the sequence word of the slot holding seq.
func (c *Channel) seqWord(seq uint64) memory.Addr {
	return c.slotAddr(seq) + memory.Addr(PayloadWords*8)
}

// timeout counts a Deadline wait's expiry on core, with its trace instant.
func (c *Channel) timeout(core topo.CoreID) {
	c.mTimeouts.Inc()
	c.eng.Tracer().Emit(uint64(c.eng.Now()), trace.Instant, trace.SubURPC, int32(core), "urpc.timeout", c.id<<32, 0)
}

// retry counts a Deadline wait's next check on core, gap cycles on, with
// its urpc.backoff trace instant.
func (c *Channel) retry(core topo.CoreID, gap sim.Time) {
	c.mRetries.Inc()
	c.eng.Tracer().Emit(uint64(c.eng.Now()), trace.Instant, trace.SubURPC, int32(core), "urpc.backoff", c.id<<32, uint64(gap))
}

// waitSpace waits under w until the ring has space, reporting false if w
// gave up first. The ack line is touched only when the sender's cached view
// (sendAcked) shows the ring full: a view that already proves space skips the
// coherence round trip entirely, so a pipelined sender reads the ack line at
// most once per ring traversal rather than once per send. Send waits under
// Spin for Window.
func (c *Channel) waitSpace(p *sim.Proc, w Wait, until sim.Time) bool {
	gap := transportBackoff.Base
	for c.sendSeq-c.sendAcked >= uint64(c.slots) {
		c.mFullStall.Inc()
		c.RefreshAck(p)
		switch {
		case c.sendSeq-c.sendAcked < uint64(c.slots):
			return true
		case w.mode == modePoll:
			return false
		case w.mode != modeDeadline:
			p.Sleep(pollGap)
		case p.Now() >= until:
			c.timeout(c.Sender)
			return false
		default:
			c.retry(c.Sender, gap)
			p.Sleep(gap)
			gap = transportBackoff.Next(gap)
		}
	}
	return true
}

// Send transmits msgs as pipelined bursts and returns how many it pushed: up
// to a ring's worth of messages is written back-to-back behind a single
// setup charge and a single (stale-view) space check, and a parked receiver
// gets one coalesced wakeup per burst instead of one per message. This is the
// paper's "cost when pipelining" regime — the per-message cost approaches the
// slot write itself as the in-flight depth approaches the ring size. While
// the ring is full the sender waits under w; a return short of len(msgs)
// means w gave up (under Deadline, the caller's cue to render a ChannelDead
// verdict).
func (c *Channel) Send(p *sim.Proc, msgs []Message, w Wait) int {
	if w.mode == modeDeadline && c.dead {
		return 0
	}
	if w.mode == modeWindow {
		w = Spin
	}
	until := p.Now() + w.d
	rec := c.eng.Tracer()
	// Kill audit: a sender fail-stopped mid-burst (Engine.Kill lands at one of
	// the pushSlot yields) has already made some slot writes visible — their
	// sequence words are published — but has not reached this burst's notify.
	// A receiver parked on the ring would then wait forever for messages that
	// are already there. The unwind path delivers the wakeup the slots have
	// earned; on a normal return notify has cleared c.blocked and this is a
	// no-op, so the fault-free path is cycle-identical.
	defer c.wakeParked()
	sent := 0
	for sent < len(msgs) {
		if !c.waitSpace(p, w, until) {
			break
		}
		n := min(c.slots-c.InFlight(), len(msgs)-sent)
		rec.Emit(uint64(p.Now()), trace.Begin, trace.SubURPC, int32(c.Sender), "urpc.send", 0, uint64(n))
		p.Sleep(sendSetupCost)
		for _, m := range msgs[sent : sent+n] {
			c.pushSlot(p, m)
		}
		c.notify(p)
		rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(c.Sender), "urpc.send", 0, 0)
		sent += n
	}
	return sent
}

// InFlight returns the number of sent-but-unacknowledged messages under the
// sender's current (possibly stale) view of receiver progress.
func (c *Channel) InFlight() int { return int(c.sendSeq - c.sendAcked) }

// RefreshAck re-reads the receiver's published progress from the ack line,
// paying the coherence round trip. Windowed senders call it to learn about
// drained slots without transmitting.
func (c *Channel) RefreshAck(p *sim.Proc) {
	c.sendAcked = c.sys.Load(p, c.Sender, c.ack.Base)
}

// pushSlot writes msg into the next slot; the caller has verified ring space
// and charged the setup cost.
func (c *Channel) pushSlot(p *sim.Proc, msg Message) {
	var line [memory.WordsPerLine]uint64
	copy(line[:], msg[:])
	line[PayloadWords] = c.sendSeq + 1 // sequence word written last
	c.sys.StoreLine(p, c.Sender, c.slotAddr(c.sendSeq), line)
	c.sendSeq++
	c.mSent.Inc()
	c.eng.Tracer().Emit(uint64(p.Now()), trace.FlowOut, trace.SubURPC, int32(c.Sender), "urpc.msg", c.id<<32|c.sendSeq, 0)
}

// claimParked takes the parked receiver off the channel, counting the
// notification it is owed; nil if no receiver is parked.
func (c *Channel) claimParked() *sim.Proc {
	w := c.blocked
	if w != nil {
		c.blocked = nil
		c.mNotifies.Inc()
	}
	return w
}

// notify wakes a parked receiver, if any. The receiver exhausted its polling
// window and asked its monitor to notify it; model the notification as an
// IPI-cost wakeup (§5.2). Send calls this once per burst, so a receiver
// behind on a pipelined stream pays one wakeup, not one per message.
func (c *Channel) notify(p *sim.Proc) {
	w := c.claimParked()
	if w == nil || c.mut == MutDropNotify {
		return // MutDropNotify: planted defect, the wakeup is lost
	}
	// The wakeup is committed before the IPI-latency sleep: if the sender is
	// fail-stopped during the sleep (Engine.Kill unwinds it at that yield),
	// the deferred Unpark still runs, so the receiver is never stranded with
	// messages already visible in the ring. On the fault-free path the defer
	// fires right after the sleep — cycle-identical to the inline call.
	defer p.Unpark(w)
	p.Sleep(c.sys.Machine().Costs.IPIDeliver)
}

// wakeParked delivers, from outside any sender proc, the IPI-modeled wakeup
// a parked receiver with messages waiting is owed: the cross-partition
// arrival path and the kill audit of a sender unwound before its notify.
func (c *Channel) wakeParked() {
	if c.blocked == nil || !c.Pending() {
		return
	}
	w, eng := c.claimParked(), c.eng
	eng.After(c.sys.Machine().Costs.IPIDeliver, func() { eng.Wake(w) })
}

// Recv drains ready messages into buf under w and returns how many it
// delivered; 0 means w gave up on an empty ring (never under Spin or
// Window). buf must be non-empty. The poll-loop check cost is charged once
// per ring check, not once per message, and receiver progress is published
// to the ack line at most once per drained burst — the receive-side half of
// the pipelining regime. A receive that waits is a one-ring Pass
// (recvWait), whose checks the engine skips while the ring stays empty: a
// check every pollGap under Spin and Window, whose first read at or after
// the window's end parks the receiver until notified, after which the wait
// goes on; under Deadline the backoff ladder, each check counted in
// urpc.retries, until the first read at or after the deadline.
func (c *Channel) Recv(p *sim.Proc, buf []Message, w Wait) int {
	if w.mode == modePoll {
		t0 := p.Now()
		p.Sleep(recvCheckCost)
		return c.drain(p, buf, t0, false)
	}
	if c.wait == nil {
		c.wait = &recvWait{c: c}
	}
	rw := c.wait
	ps := rw.pass(w.mode)
	rw.mode, rw.until = w.mode, p.Now()+w.d
	if w.mode == modeSpin {
		rw.until = sim.Forever
	}
	ps.At, ps.Idle, ps.check = PassStart, 0, Check{}
	for {
		switch ps.Next(p) {
		case PassRing: // a message, or the probe missed
			if n := ps.Drain(p, buf); n > 0 {
				return n
			}
			ps.Ring++ // the load found the ring empty after all
		case PassService: // the window ended or the deadline passed
			if w.mode == modeDeadline {
				c.timeout(c.Receiver)
				return 0
			}
			c.park(p)
			ps.At = PassStart
		}
	}
}

// recvWait owns a channel's waiting receives. Each is a one-ring Pass with
// no loop cost and no park, whose service point is the window's end or the
// deadline. A channel has one receiver, so it keeps one recvWait, with a
// pass per plan made at the receiver's first wait of that kind.
type recvWait struct {
	c              *Channel
	mode           waitMode
	until          sim.Time // the window's end, the deadline, or Forever
	spin, deadline *Pass    // under Spin and Window; under Deadline
}

// The plans of waiting receives: a check every pollGap under Spin and
// Window; under Deadline transportBackoff's ladder up to its first
// maxBackoffGap, then a check every maxBackoffGap. The ladder's last pass
// sleeps the cap too: a chain never wraps the ladder, so the longer it is,
// the fewer waits need a second chain.
var (
	spinPlan     = &PassPlan{Sleep: pollGap}
	deadlinePlan = &PassPlan{Sleep: maxBackoffGap, Ladder: func() (l []sim.Time) {
		for len(l) == 0 || l[len(l)-1] < maxBackoffGap {
			l = append(l, transportBackoff.Gap(len(l)))
		}
		return l
	}()}
)

// pass returns the wait's pass under mode, making it on first use.
func (rw *recvWait) pass(mode waitMode) *Pass {
	ps, pl := &rw.spin, spinPlan
	if mode == modeDeadline {
		ps, pl = &rw.deadline, deadlinePlan
	}
	if *ps == nil {
		*ps = pl.NewPass(rw, nil, []*Channel{rw.c})
	}
	return *ps
}

// Begin reports false: a wait acts only on its ring.
func (rw *recvWait) Begin() bool { return false }

// Service reports whether the window has ended or the deadline passed.
func (rw *recvWait) Service() bool { return rw.c.eng.Now() >= rw.until }

// Busy reports false; a wait parks only at its service point.
func (rw *recvWait) Busy() bool { return false }

// Quiet lets the engine skip the wait's polls up to its window's end or
// deadline. It declines while touch tracking is on, since a skipped probe
// records no touch, and under Deadline while a tracer is installed, since
// skipped pass ends' urpc.backoff instants could not be replayed in trace
// order; installing either nudges the engine's chains
// (sim.Engine.SetTracer, cache.System.StartTouchTracking).
func (rw *recvWait) Quiet() (bool, sim.Time) {
	c := rw.c
	if c.sys.Tracking() || rw.mode == modeDeadline && c.eng.Tracer() != nil {
		return false, 0
	}
	return true, rw.until
}

// Check is one receive-ring check taken as sim.Proc.Idle steps, for loops
// that poll rings (a Pass). Its zero value is ready to start; a completed
// check starts over on its next step.
type Check struct {
	t0    sim.Time    // check start: a non-empty drain's urpc.recv span opens here
	word  memory.Addr // the sequence word checked
	state checkState
}

type checkState uint8

const (
	checkIdle   checkState = iota // the next step starts a check
	checkProbe                    // the check charge is paid: probe the sequence word
	checkRead                     // the hit latency is paid: read the word
	checkReady                    // done: a message is ready
	checkMissed                   // done: the probe missed; Drain loads the word
)

// CheckGaps returns the sleeps of the two steps of a check that finds the
// ring empty through a hit: the check charge, then the hit latency.
func (c *Channel) CheckGaps() (check, probe sim.Time) {
	return recvCheckCost, c.sys.Machine().Costs.L1Hit
}

// Watch is the quiet test of a check, for loops whose steps
// sim.Proc.Idle may skip: hit reports whether the probe would hit (the
// receiver holds the line of the next slot's sequence word) and ready
// whether that word shows a message. On a hit the line is watched through
// w (cache.System.Watch): a write to it, or a drop of the receiver's copy,
// dirties w and nudges w.Proc. w stays clean only for an empty ring, so
// while it is clean the check would hit and find no message. It charges
// and counts nothing.
func (c *Channel) Watch(w *cache.Watcher) (hit, ready bool) {
	v, hit := c.sys.Watch(c.Receiver, c.seqWord(c.recvSeq), w)
	if ready = v == c.recvSeq+1; ready {
		w.Clean = false
	}
	return hit, ready
}

// pos returns the place in its check of ck's next step: 0 for the charge,
// 1 for the probe, 2 for the read.
func (ck *Check) pos() uint64 {
	switch ck.state {
	case checkProbe:
		return 1
	case checkRead:
		return 2
	}
	return 0
}

// SetCheck puts ck where a quiet check of this ring begun at t0 stands:
// before its probe, or, probed, after the probe hit and before the read.
func (c *Channel) SetCheck(ck *Check, t0 sim.Time, probed bool) {
	ck.t0, ck.word = t0, c.seqWord(c.recvSeq)
	ck.state = checkProbe
	if probed {
		ck.state = checkRead
	}
}

// CheckStep advances ck by one step on the receiver core. Until the check
// is done it returns the sleep before the next step. The steps make exactly
// the charges and side effects of the blocking check they replace: the
// poll-loop check cost, then a hit probe of the slot's sequence word, then
// the word read after the hit latency. When done, work reports whether the
// proc must call Drain: a message is ready, or the probe missed and the
// word must be loaded through the coherence path.
func (c *Channel) CheckStep(ck *Check) (d sim.Time, done, work bool) {
	switch ck.state {
	case checkProbe:
		d, hit := c.sys.ProbeHit(c.Receiver, ck.word)
		if !hit {
			ck.state = checkMissed
			return 0, true, true
		}
		ck.state = checkRead
		return d, false, false
	case checkRead:
		if c.sys.Memory().LoadWord(ck.word) == c.recvSeq+1 {
			ck.state = checkReady
			return 0, true, true
		}
		ck.state = checkIdle
		return 0, true, false
	}
	ck.t0, ck.word = c.eng.Now(), c.seqWord(c.recvSeq)
	ck.state = checkProbe
	return recvCheckCost, false, false
}

// Drain copies every ready message, up to len(buf), into buf after ck
// completed with work to do, and returns how many. After a missed probe it
// first loads the sequence word through the coherence path, which may find
// the ring empty after all.
func (c *Channel) Drain(p *sim.Proc, buf []Message, ck *Check) int {
	ready := ck.state == checkReady
	ck.state = checkIdle
	return c.drain(p, buf, ck.t0, ready)
}

// drain copies every ready message, up to len(buf), into buf once a ring
// check that started at t0 has paid its charge. ready says the check already
// read the first sequence word; otherwise drain loads it, so an empty ring
// costs only the check and that load.
func (c *Channel) drain(p *sim.Proc, buf []Message, t0 sim.Time, ready bool) int {
	rec := c.eng.Tracer()
	n := 0
	for n < len(buf) {
		if !ready && c.sys.Load(p, c.Receiver, c.seqWord(c.recvSeq)) != c.recvSeq+1 {
			break
		}
		ready = false
		if n == 0 {
			// Retroactive span open: only successful polls become urpc.recv
			// slices, so idle polling does not flood the trace; t0 still
			// covers the seq-word fetch that dominates single-message latency.
			rec.Emit(uint64(t0), trace.Begin, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, 0)
		}
		line := c.sys.LoadLine(p, c.Receiver, c.slotAddr(c.recvSeq))
		copy(buf[n][:], line[:PayloadWords])
		p.Sleep(recvCopyCost)
		c.recvSeq++
		c.mReceived.Inc()
		rec.Emit(uint64(p.Now()), trace.FlowIn, trace.SubURPC, int32(c.Receiver), "urpc.msg", c.id<<32|c.recvSeq, 0)
		if c.prefetch && len(buf) > 1 {
			c.sys.Prefetch(p, c.Receiver, c.slotAddr(c.recvSeq))
		}
		n++
	}
	if n > 0 {
		if !c.holdAck {
			c.ackConsumed(p)
		}
		// A burst drain prefetches each next slot ahead of its check; a
		// single-message receive looks ahead only after publishing its ack.
		// The prefetch ablation pins this order, the v2 benchmarks the other.
		if c.prefetch && len(buf) == 1 {
			c.sys.Prefetch(p, c.Receiver, c.slotAddr(c.recvSeq))
		}
		rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, uint64(n))
	}
	return n
}

// park blocks the receiver until a sender's notify, then charges the wakeup
// path: trap + context switch back to it.
func (c *Channel) park(p *sim.Proc) {
	if c.blocked != nil {
		panic("urpc: second receiver blocked on channel")
	}
	c.blocked = p
	// A receiver killed while parked unwinds out of Park: release the
	// channel so the next receiver can park, a checkpoint sees it quiescent,
	// and no sender pays to notify the dead proc. Free of virtual time.
	defer func() {
		if c.blocked == p {
			c.blocked = nil
		}
	}()
	p.Park()
	c.blocked = nil
	mc := c.sys.Machine().Costs
	p.Sleep(mc.Trap + mc.CSwitch)
}

// ackConsumed publishes receiver progress to the ack line, amortized to one
// reverse-direction store per half-ring (an idle ring publishes immediately so
// a stalled sender always makes progress). The ordinary receive paths call it
// inline; channels constructed with holdAck (bulk descriptor rings) call it
// only after the dequeued descriptor's external payload has been consumed,
// because for them the ack is the slot-reuse grant.
func (c *Channel) ackConsumed(p *sim.Proc) {
	if c.recvSeq-c.published >= uint64(c.slots)/2 || !c.Pending() {
		pub := c.recvSeq
		if c.mut == MutAckOverpublish && pub > 0 {
			pub++ // planted defect: grant a slot that was never consumed
		}
		c.sys.Store(p, c.Receiver, c.ack.Base, pub)
		c.published = pub
		c.eng.Tracer().Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(c.Receiver), "urpc.ack", c.id<<32, pub)
	}
}

// MarkDead records a ChannelDead verdict: the peer has been declared
// fail-stopped, and subsequent sends under Deadline push nothing. Receiving
// is unaffected (already-written slots may still be drained).
func (c *Channel) MarkDead() { c.dead = true }

// Dead reports whether the channel carries a ChannelDead verdict.
func (c *Channel) Dead() bool { return c.dead }

// PrefetchSlot issues a software prefetch for the next expected message slot
// from the receiver core. Polling loops over many channels use this to model
// the hardware stride prefetcher the paper credits for the master's receive
// loop performance (§5.1): by the time the slot is polled, its line is
// already (or soon) local.
func (c *Channel) PrefetchSlot(p *sim.Proc) {
	c.sys.Prefetch(p, c.Receiver, c.slotAddr(c.recvSeq))
}

// Pending reports whether a message is ready without charging any cost
// (engine-side inspection for tests and schedulers).
func (c *Channel) Pending() bool {
	return c.sys.Memory().LoadWord(c.seqWord(c.recvSeq)) == c.recvSeq+1
}

// String implements fmt.Stringer.
func (c *Channel) String() string {
	return fmt.Sprintf("urpc %d->%d (%d slots)", c.Sender, c.Receiver, c.slots)
}
