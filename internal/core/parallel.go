// Parallel boot (DESIGN §11): the full multikernel on sim.ParallelEngine.
//
// The multikernel's own architecture is what makes this possible: cores share
// no state and communicate only through single-writer URPC regions, so a
// partition of the machine can hold a complete REPLICA of the hardware models
// (memory, MOESI directory, fabric, kernel, SKB, the whole monitor mesh as
// structure) and run only the software of its own cores. Every replica is
// built by the identical construction sequence — same allocation order, same
// channel serials — so a region's address and a channel's id mean the same
// thing in every replica; that is the cross-replica addressing scheme. Data
// crosses partitions exclusively through the regions registered with
// cache.System.ShareRegion (URPC rings, ack lines, bulk pools): a store in
// the writer's replica forwards the cache line through the ParallelEngine
// outbox, one conservative lookahead ahead, and delivery in the reader's
// replica re-points the directory at the writer so the reader's next miss
// charges the serial owner-forwarded fill.
//
// What this is NOT: a cycle-identical reproduction of the single-engine
// schedule at nparts>1. The conservative lookahead delays cross-partition
// visibility (a serial reader could observe a line RemoteBase cycles after
// the store; a partitioned reader observes it at the next epoch grid point),
// and a writer's replica never sees the reader as a holder, so the sender-
// side invalidation probe of the serial schedule is elided. The determinism
// contract is the one that matters for experiments: results are a pure
// function of (seed, nparts) — NEVER of workers — and nparts=1 reproduces the
// serial boot byte-for-byte. DESIGN.md §11 derives both properties.
package core

import (
	"fmt"
	"io"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// ParallelSystem is one multikernel booted across the partitions of a
// ParallelEngine: one full System replica per partition, cross-linked through
// the cache layer's shared-region forwarding.
type ParallelSystem struct {
	PE   *sim.ParallelEngine
	PM   *topo.PartitionMap
	Mach *topo.Machine

	// Parts holds partition i's replica at index i. Partition-local state
	// (procs, clocks, metrics) is authoritative only in the owning replica;
	// remote cores exist there as structure.
	Parts []*System
}

// BootParallel boots the multikernel on every partition of pe. The machine is
// partitioned along socket boundaries into pe.NParts() partitions (nparts must
// divide the socket count; topo.Partition enforces the geometry), and pe's
// lookahead must not exceed the machine's cross-partition minimum latency
// (interconnect.Lookahead) — the conservative contract the cache-line
// forwarding rides on.
func BootParallel(pe *sim.ParallelEngine, m *topo.Machine, opts Options) *ParallelSystem {
	pm := topo.Partition(m, pe.NParts())
	if max := interconnect.Lookahead(m, pm); pe.NParts() > 1 && pe.Lookahead() > max {
		panic(fmt.Sprintf("core: engine lookahead %d exceeds %s's cross-partition minimum %d", pe.Lookahead(), m.Name, max))
	}
	ps := &ParallelSystem{PE: pe, PM: pm, Mach: m}
	for i := 0; i < pe.NParts(); i++ {
		// Each replica runs the full BootWith sequence on its partition's
		// engine, its cache system partition-marked before any channel or
		// proc exists.
		ps.Parts = append(ps.Parts, bootWith(pe.Part(i), m, opts, func(s *System) {
			s.Cache.SetPartition(pm, i, pe)
		}))
	}
	ps.link()
	return ps
}

// link cross-wires the replicas (forwarding closures address peer region
// tables by index) and asserts construction parity: identical allocation
// cursors are the observable proof that every replica ran the same build
// sequence, which is what makes addresses replica-portable.
func (ps *ParallelSystem) link() {
	peers := make([]*cache.System, len(ps.Parts))
	for i, s := range ps.Parts {
		peers[i] = s.Cache
	}
	size := ps.Parts[0].Mem.Size()
	for i, s := range ps.Parts {
		if s.Mem.Size() != size {
			panic(fmt.Sprintf("core: replica %d allocated %d bytes, replica 0 allocated %d (construction sequences diverged)", i, s.Mem.Size(), size))
		}
		s.Cache.SetPeers(peers)
	}
}

// Local returns the replica that owns core c — the only replica whose procs,
// clock and per-core software state are authoritative for that core.
func (ps *ParallelSystem) Local(c topo.CoreID) *System {
	return ps.Parts[ps.PM.PartOfCore(c)]
}

// Each runs fn on every replica in partition order (setup/inspection only;
// during Run, a partition is touched only by its own procs).
func (ps *ParallelSystem) Each(fn func(part int, s *System)) {
	for i, s := range ps.Parts {
		fn(i, s)
	}
}

// Checkpoint saves the booted parallel system. Quiescence requirement: call
// between Run calls at a true epoch barrier — every partition engine must
// satisfy the serial checkpoint rules (procs parked or done, no pending
// events) and no cross-partition sends may be waiting in the outboxes.
// ParallelEngine.Checkpoint rejects a mid-epoch image; a system that has run
// to completion (Run returned with empty heaps) always qualifies.
func (ps *ParallelSystem) Checkpoint(w io.Writer) error { return ps.PE.Checkpoint(w) }
