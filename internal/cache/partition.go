// Partition support: running one cache.System replica per ParallelEngine
// partition.
//
// The multikernel treats shared memory as a message channel (URPC rings, ack
// lines, bulk pools): every such region has exactly one writing core and one
// reading core. That discipline is what makes the boot path parallelizable —
// each partition holds a complete replica of the hardware models (memory,
// directory, fabric), built by an identical construction sequence so
// addresses and channel ids line up across replicas, and only the regions
// registered through ShareRegion carry data between them. A store to a shared
// region in the writer's replica forwards the whole cache line through the
// ParallelEngine's cross-partition outbox; delivery in the reader's replica
// lands the data in memory and re-points the directory at the writer, so the
// reader's next miss charges the same owner-forwarded fill a serial run
// would.
//
// The visibility model this buys is delayed-but-deterministic: a forwarded
// line becomes readable in the reader's replica exactly one conservative
// lookahead after the store, never earlier (the epoch barrier forbids it) and
// never later (outboxes merge at the next barrier in (source, send-order)
// order). Results are a pure function of (seed, partition count) — worker
// count only changes wall-clock time. See DESIGN.md §11 for the derivation
// and the honest statement of how this differs from the single-engine
// schedule.
package cache

import (
	"fmt"

	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// sharedRegion is one registered single-writer cross-partition region.
type sharedRegion struct {
	base   memory.Addr
	limit  memory.Addr
	writer topo.CoreID // the one core that stores into the region
	reader topo.CoreID // the one core that loads from it
	wpart  int
	rpart  int
	// onDeliver runs in the reader's replica after each delivered line —
	// the cross-partition analogue of the sender's doorbell (URPC wires it
	// to the parked-receiver wake path).
	onDeliver func()
}

// partState holds a replica's view of the partitioning. nil on an
// unpartitioned (serial) system, which keeps the hot-path cost of the
// partition checks at one predicted branch.
type partState struct {
	pm   *topo.PartitionMap
	self int
	// pe carries forwarded lines and byte ranges to their reader's
	// replica, one lookahead ahead, through its cross-partition outbox.
	pe    *sim.ParallelEngine
	peers []*System // all replicas, indexed by partition; peers[self] == owner

	// regions in registration order. Construction order is identical in
	// every replica, so an index here names the same region everywhere —
	// that is what lets a forwarding closure address the destination
	// replica's region table.
	regions []*sharedRegion
	// fwd maps lines this replica forwards on store (writer is local) to
	// their region. A line's entry carries the same index (line.fwd), so
	// a store reads it from the line it holds.
	fwd map[memory.LineID]int
	// suppress disables store forwarding while StoreLine writes words 1..7
	// (the whole line forwards once, after the last word).
	suppress bool
}

// SetPartition marks this system as partition self's replica of a
// parallel-booted machine on pe. Must be called before any cache activity.
// Registering is what arms LocalCore and ShareRegion.
func (s *System) SetPartition(pm *topo.PartitionMap, self int, pe *sim.ParallelEngine) {
	if s.part != nil {
		panic("cache: SetPartition called twice")
	}
	s.part = &partState{
		pm:   pm,
		self: self,
		pe:   pe,
		fwd:  make(map[memory.LineID]int),
	}
}

// SetPeers installs the full replica set (indexed by partition) so forwarding
// closures can address the destination replica. Called by BootParallel once
// every replica exists.
func (s *System) SetPeers(peers []*System) {
	if s.part == nil {
		panic("cache: SetPeers on an unpartitioned system")
	}
	s.part.peers = peers
}

// LocalCore reports whether core c belongs to this replica's partition.
// Unpartitioned systems own every core. Every proc-spawning site (monitors,
// app services, netstack drivers) consults this so a replica only runs the
// software of its own cores.
func (s *System) LocalCore(c topo.CoreID) bool {
	return s.part == nil || s.part.pm.PartOfCore(c) == s.part.self
}

// ShareRegion registers reg as a single-writer communication region from
// writer to reader. On an unpartitioned system, or when both cores share a
// partition, it is a no-op. In the writer's replica every store to the region
// forwards the full line to the reader's partition; in the reader's replica
// onDeliver (may be nil) runs after each delivered line. Call sites must
// execute in identical order in every replica — region indices are the
// cross-replica addressing scheme.
func (s *System) ShareRegion(reg memory.Region, writer, reader topo.CoreID, onDeliver func()) {
	pt := s.part
	if pt == nil {
		return
	}
	wp, rp := pt.pm.PartOfCore(writer), pt.pm.PartOfCore(reader)
	if wp == rp {
		return
	}
	r := &sharedRegion{
		base: reg.Base, limit: reg.Base + memory.Addr(reg.Bytes),
		writer: writer, reader: reader, wpart: wp, rpart: rp,
		onDeliver: onDeliver,
	}
	idx := len(pt.regions)
	pt.regions = append(pt.regions, r)
	if wp == pt.self {
		for id := r.base.Line(); id.Base() < r.limit; id++ {
			if old, dup := pt.fwd[id]; dup {
				panic(fmt.Sprintf("cache: line %#x shared by regions %d and %d (single-writer regions must not overlap)", id, old, idx))
			}
			pt.fwd[id] = idx
			if l := s.lines[id]; l != nil {
				s.markForward(id, l)
			}
		}
	}
}

// markForward marks l, the entry of line id, with the region this replica
// forwards its stores through, if any.
func (s *System) markForward(id memory.LineID, l *line) {
	if pt := s.part; pt != nil {
		if idx, ok := pt.fwd[id]; ok {
			l.fwd = int32(idx) + 1
		}
	}
}

// maybeForward ships l, the line containing a, to its reader partition if
// this replica writes a registered shared region through it. Runs after the
// store has landed in local memory, so the forwarded payload is the full
// post-store line image. The line travels as a letter, so a store
// allocates nothing.
func (s *System) maybeForward(l *line, a memory.Addr) {
	if l.fwd == 0 || s.part.suppress {
		return
	}
	pt, idx := s.part, int(l.fwd-1)
	r, base := pt.regions[idx], a.Line().Base()
	pt.pe.Post(pt.self, r.rpart, pt.pe.Lookahead(), &sim.Letter{
		To: pt.peers[r.rpart], A: uint64(idx), B: uint64(base), Data: s.mem.LoadLine(base),
	})
}

// Receive lands a line that the writer's replica forwarded (maybeForward):
// l.A is its region's index, l.B its base address.
func (s *System) Receive(l *sim.Letter) { s.remoteStore(int(l.A), memory.Addr(l.B), l.Data) }

// MirrorBytes forwards a raw byte range of a shared region this replica
// writes — the path for bulk-pool payloads written through
// Memory().StoreBytes, which bypasses the per-store hook. No-op when the
// range is not part of a forwarded region (including the serial engine).
func (s *System) MirrorBytes(a memory.Addr, b []byte) {
	pt := s.part
	if pt == nil || len(b) == 0 {
		return
	}
	idx, ok := pt.fwd[a.Line()]
	if !ok {
		return
	}
	r := pt.regions[idx]
	payload := append([]byte(nil), b...)
	peer := pt.peers[r.rpart]
	pt.pe.Send(pt.self, r.rpart, pt.pe.Lookahead(), func() {
		peer.remoteBytes(idx, a, payload)
	})
}

// remoteStore lands one forwarded line in this (the reader's) replica: data
// into memory, directory re-pointed at the writing core — so the reader's
// next access misses and charges the owner-forwarded fill exactly as the
// serial schedule would — then the region's doorbell.
func (s *System) remoteStore(idx int, base memory.Addr, vals [memory.WordsPerLine]uint64) {
	r := s.part.regions[idx]
	l := s.lineFor(base)
	var before LineView
	if s.audit != nil {
		before = l.view()
	}
	for i := 0; i < memory.WordsPerLine; i++ {
		s.mem.StoreWord(base+memory.Addr(i*8), vals[i])
	}
	l.holders = OnlyCore(r.writer)
	l.owner = int16(r.writer)
	l.dirty = true
	if s.audit != nil {
		s.audited(base.Line(), AuditRemote, r.writer, before, l, 0)
	}
	l.changed()
	if r.onDeliver != nil {
		r.onDeliver()
	}
}

// remoteBytes lands a forwarded byte range: memory content plus a directory
// reset of every covered line (the writer authored them all).
func (s *System) remoteBytes(idx int, a memory.Addr, b []byte) {
	r := s.part.regions[idx]
	s.mem.StoreBytes(a, b)
	first := a.Line()
	last := (a + memory.Addr(len(b)) - 1).Line()
	for id := first; id <= last; id++ {
		l := s.lineFor(id.Base())
		var before LineView
		if s.audit != nil {
			before = l.view()
		}
		l.holders = OnlyCore(r.writer)
		l.owner = int16(r.writer)
		l.dirty = true
		if s.audit != nil {
			s.audited(id, AuditRemote, r.writer, before, l, 0)
		}
		l.changed()
	}
	if r.onDeliver != nil {
		r.onDeliver()
	}
}

// String renders the region for audit/debug dumps.
func (r *sharedRegion) String() string {
	return fmt.Sprintf("region[%#x,%#x) c%d(p%d)->c%d(p%d)", r.base, r.limit, r.writer, r.wpart, r.reader, r.rpart)
}
