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

// Bulk-transfer channels (paper §4.6, §5.3): payloads larger than one cache
// line do not ride the message ring line-by-line. Instead the sender writes
// them into a slot of a shared-memory pool and posts a single one-line
// descriptor {slot sequence, byte length} on an ordinary URPC channel. The
// payload lines move between caches on first touch, at line granularity,
// through the ordinary MOESI transfer path — the receiver reads data straight
// out of the pool, so the transfer is zero-copy in the sense that no software
// intermediary ever copies the payload.
//
// The descriptor ring doubles as the slot-reuse protocol: the pool has
// exactly one payload slot per descriptor slot, and the descriptor ring's ack
// is deferred (holdAck) until the receiver has snapshotted the payload — so a
// sender that has ring space for a descriptor is guaranteed the corresponding
// pool slot has truly been consumed, not merely dequeued.

// Default bulk-channel geometry: 16 in-flight payloads of 24 lines each
// (24 lines = 1536 bytes, one full-size Ethernet frame).
const (
	DefaultBulkSlots     = 16
	DefaultBulkSlotLines = 24
)

// BulkOptions configure bulk-channel construction.
type BulkOptions struct {
	// Slots is the number of in-flight payloads (and the descriptor ring
	// size); 0 means DefaultBulkSlots.
	Slots int
	// SlotLines is the pool-slot capacity in cache lines; 0 means
	// DefaultBulkSlotLines.
	SlotLines int
	// Home is the NUMA socket for the pool and descriptor ring; -1 homes
	// both on the receiver's socket.
	Home int
	// Prefetch strides the receiver's payload reads: while line i is being
	// pulled, line i+1's transfer is already in flight, modelling the
	// hardware stride prefetcher on a sequential pool scan.
	Prefetch bool
}

// BulkChannel is a unidirectional channel for multi-line payloads.
type BulkChannel struct {
	sys       *cache.System
	desc      *Channel      // descriptor ring; its backpressure gates slot reuse
	pool      memory.Region // slots × slotLines payload lines
	slots     int
	slotLines int
	seq       uint64 // next pool slot sequence to write
	prefetch  bool

	mXfers, mLines *metrics.Counter
}

// NewBulk creates a bulk channel from sender to receiver. Slots must be at
// least 2 (the descriptor ring minimum).
func NewBulk(sys *cache.System, sender, receiver topo.CoreID, opts BulkOptions) *BulkChannel {
	slots := opts.Slots
	if slots == 0 {
		slots = DefaultBulkSlots
	}
	slotLines := opts.SlotLines
	if slotLines == 0 {
		slotLines = DefaultBulkSlotLines
	}
	home := topo.SocketID(opts.Home)
	if opts.Home < 0 {
		home = sys.Machine().Socket(receiver)
	}
	reg := sys.Engine().Metrics()
	desc := New(sys, sender, receiver, Options{Slots: slots, Home: int(home)})
	// The descriptor ack is the pool-slot reuse grant: defer it until the
	// payload has been read out (see read).
	desc.holdAck = true
	pool := sys.Memory().AllocLines(slots*slotLines, home)
	// Parallel boot: pool lines mirror sender→receiver like ring lines (no
	// doorbell — the descriptor ring carries the arrival notification, and
	// outbox ordering guarantees the payload lands before its descriptor).
	sys.ShareRegion(pool, sender, receiver, nil)
	return &BulkChannel{
		sys:       sys,
		desc:      desc,
		pool:      pool,
		slots:     slots,
		slotLines: slotLines,
		prefetch:  opts.Prefetch,
		mXfers:    reg.Counter("urpc.bulk_transfers"),
		mLines:    reg.Counter("urpc.bulk_lines"),
	}
}

// Sender returns the sending core.
func (b *BulkChannel) Sender() topo.CoreID { return b.desc.Sender }

// Receiver returns the receiving core.
func (b *BulkChannel) Receiver() topo.CoreID { return b.desc.Receiver }

// SlotBytes returns the payload capacity of one pool slot.
func (b *BulkChannel) SlotBytes() int { return b.slotLines * memory.LineSize }

// Stats returns the descriptor ring's counters.
func (b *BulkChannel) Stats() Stats { return b.desc.Stats() }

// Pending reports whether a payload is ready (engine-side inspection).
func (b *BulkChannel) Pending() bool { return b.desc.Pending() }

func (b *BulkChannel) slotBase(seq uint64) memory.Addr {
	return b.pool.LineAt(int(seq%uint64(b.slots)) * b.slotLines)
}

// Send moves payload through the next pool slot: the payload lines are
// written back-to-back (invalidating the receiver's copies), then a single
// descriptor message carries {sequence, length}. Blocks while the descriptor
// ring — and therefore the pool — is full.
func (b *BulkChannel) Send(p *sim.Proc, payload []byte) {
	if len(payload) > b.SlotBytes() {
		panic(fmt.Sprintf("urpc: bulk payload %d bytes exceeds slot capacity %d", len(payload), b.SlotBytes()))
	}
	rec := b.desc.eng.Tracer()
	rec.Emit(uint64(p.Now()), trace.Begin, trace.SubURPC, int32(b.desc.Sender), "urpc.bulk_send", 0, uint64(len(payload)))
	// Block on descriptor-ring space BEFORE touching the pool: until the
	// slot's previous descriptor is acked, the receiver may not have read the
	// payload out yet. (desc.Send re-checks below, but by then the sender's
	// view already proves space, so it cannot block again.)
	b.desc.waitSpace(p, Spin, 0)
	base := b.slotBase(b.seq)
	var zero [memory.WordsPerLine]uint64
	lines := 0
	for i := 0; i*memory.LineSize < len(payload); i++ {
		b.sys.StoreLine(p, b.desc.Sender, base+memory.Addr(i*memory.LineSize), zero)
		lines++
	}
	b.sys.Memory().StoreBytes(base, payload)
	// StoreBytes bypasses the per-store mirror hook; forward the payload
	// bytes explicitly when the pool spans partitions (no-op otherwise).
	b.sys.MirrorBytes(base, payload)
	b.desc.Send(p, []Message{{b.seq, uint64(len(payload))}}, Spin)
	b.seq++
	b.mXfers.Inc()
	b.mLines.Add(uint64(lines))
	rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(b.desc.Sender), "urpc.bulk_send", 0, 0)
}

// Recv waits under w for a payload and reads it out of the pool; false
// means w gave up on an empty channel.
func (b *BulkChannel) Recv(p *sim.Proc, w Wait) ([]byte, bool) {
	var m [1]Message
	if b.desc.Recv(p, m[:], w) == 0 {
		return nil, false
	}
	return b.read(p, m[0]), true
}

// read pulls the payload lines of descriptor m to the receiver's cache, then
// releases the pool slot by publishing the deferred descriptor ack.
func (b *BulkChannel) read(p *sim.Proc, m Message) []byte {
	size := int(m[1])
	base := b.slotBase(m[0])
	// Snapshot before acking: the sender may not reuse this slot until the
	// ack below is published.
	payload := b.sys.Memory().LoadBytes(base, size)
	rec := b.desc.eng.Tracer()
	rec.Emit(uint64(p.Now()), trace.Begin, trace.SubURPC, int32(b.desc.Receiver), "urpc.bulk_recv", 0, uint64(size))
	for i := 0; i*memory.LineSize < size; i++ {
		if b.prefetch && (i+1)*memory.LineSize < size {
			b.sys.Prefetch(p, b.desc.Receiver, base+memory.Addr((i+1)*memory.LineSize))
		}
		b.sys.LoadLine(p, b.desc.Receiver, base+memory.Addr(i*memory.LineSize))
	}
	b.desc.ackConsumed(p)
	rec.Emit(uint64(p.Now()), trace.End, trace.SubURPC, int32(b.desc.Receiver), "urpc.bulk_recv", 0, 0)
	return payload
}

// String implements fmt.Stringer.
func (b *BulkChannel) String() string {
	return fmt.Sprintf("urpc bulk %d->%d (%d slots x %d lines)",
		b.desc.Sender, b.desc.Receiver, b.slots, b.slotLines)
}
