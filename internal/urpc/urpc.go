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
// spin, poll-then-block, or back off to a deadline.
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

// Stats counts per-channel activity. Deadline expiries and backoff re-polls
// live in the engine's metrics registry ("urpc.timeouts", "urpc.retries"), not
// here: they are fleet-wide health signals, and keeping one accumulation
// convention avoids the per-channel/per-registry drift the old ad-hoc fields
// suffered from.
type Stats struct {
	Sent      uint64
	Received  uint64
	FullStall uint64 // sends that had to wait for ring space
	Notifies  uint64 // blocked-receiver wakeups
}

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
	stats   Stats

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

// Stats returns a copy of the channel's counters.
func (c *Channel) Stats() Stats { return c.stats }

// Slots returns the ring size.
func (c *Channel) Slots() int { return c.slots }

func (c *Channel) slotAddr(seq uint64) memory.Addr {
	return c.ring.LineAt(int(seq % uint64(c.slots)))
}

// seqWord is the address of the sequence word of the slot holding seq.
func (c *Channel) seqWord(seq uint64) memory.Addr {
	return c.slotAddr(seq) + memory.Addr(PayloadWords*8)
}

// idle spends one idle step of w after a failed ring check on core and
// reports whether to check again. until is w's deadline or window end; gap
// carries a Deadline wait's backoff ladder across steps.
func (c *Channel) idle(p *sim.Proc, w Wait, core topo.CoreID, until sim.Time, gap *sim.Time) bool {
	switch w.mode {
	case modePoll:
		return false
	case modeWindow:
		if p.Now() >= until {
			c.park(p)
			return true
		}
	case modeDeadline:
		rec := c.eng.Tracer()
		if p.Now() >= until {
			c.mTimeouts.Inc()
			rec.Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(core), "urpc.timeout", c.id<<32, 0)
			return false
		}
		c.mRetries.Inc()
		rec.Emit(uint64(p.Now()), trace.Instant, trace.SubURPC, int32(core), "urpc.backoff", c.id<<32, uint64(*gap))
		p.Sleep(*gap)
		*gap = transportBackoff.Next(*gap)
		return true
	}
	p.Sleep(pollGap)
	return true
}

// waitSpace waits under w until the ring has space, reporting false if w
// gave up first. The ack line is touched only when the sender's cached view
// (sendAcked) shows the ring full: a view that already proves space skips the
// coherence round trip entirely, so a pipelined sender reads the ack line at
// most once per ring traversal rather than once per send.
func (c *Channel) waitSpace(p *sim.Proc, w Wait, until sim.Time) bool {
	gap := transportBackoff.Base
	for c.sendSeq-c.sendAcked >= uint64(c.slots) {
		c.stats.FullStall++
		c.mFullStall.Inc()
		c.RefreshAck(p)
		if c.sendSeq-c.sendAcked < uint64(c.slots) {
			break
		}
		if !c.idle(p, w, c.Sender, until, &gap) {
			return false
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
	c.stats.Sent++
	c.mSent.Inc()
	c.eng.Tracer().Emit(uint64(p.Now()), trace.FlowOut, trace.SubURPC, int32(c.Sender), "urpc.msg", c.id<<32|c.sendSeq, 0)
}

// claimParked takes the parked receiver off the channel, counting the
// notification it is owed; nil if no receiver is parked.
func (c *Channel) claimParked() *sim.Proc {
	w := c.blocked
	if w != nil {
		c.blocked = nil
		c.stats.Notifies++
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
// the pipelining regime.
func (c *Channel) Recv(p *sim.Proc, buf []Message, w Wait) int {
	until := p.Now() + w.d
	gap := transportBackoff.Base
	for {
		if n := c.drain(p, buf); n > 0 {
			return n
		}
		if !c.idle(p, w, c.Receiver, until, &gap) {
			return 0
		}
	}
}

// drain checks the ring once and copies every ready message, up to len(buf),
// into buf. An empty ring costs only the check.
func (c *Channel) drain(p *sim.Proc, buf []Message) int {
	t0 := uint64(p.Now())
	p.Sleep(recvCheckCost)
	rec := c.eng.Tracer()
	n := 0
	for n < len(buf) {
		if c.sys.Load(p, c.Receiver, c.seqWord(c.recvSeq)) != c.recvSeq+1 {
			break
		}
		if n == 0 {
			// Retroactive span open: only successful polls become urpc.recv
			// slices, so idle polling does not flood the trace; t0 still
			// covers the seq-word fetch that dominates single-message latency.
			rec.Emit(t0, trace.Begin, trace.SubURPC, int32(c.Receiver), "urpc.recv", 0, 0)
		}
		line := c.sys.LoadLine(p, c.Receiver, c.slotAddr(c.recvSeq))
		copy(buf[n][:], line[:PayloadWords])
		p.Sleep(recvCopyCost)
		c.recvSeq++
		c.stats.Received++
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
