package topo

import "fmt"

// PartitionMap assigns every socket of a machine to one of NParts partitions.
// It is the static decomposition consumed by the parallel simulation engine
// (internal/sim): each partition runs its own event heap, and only events
// that cross a partition boundary pay synchronization. Sockets are the unit
// of partitioning because the machine's latency cliff sits at the socket
// boundary — intra-socket transfers (shared L3, local snoop) are far cheaper
// than any cross-socket transaction, so socket-aligned partitions maximize
// the conservative lookahead (see interconnect.Lookahead).
type PartitionMap struct {
	m      *Machine
	nparts int
	of     []int // socket -> partition
}

// Partition divides machine m into nparts partitions of contiguous sockets,
// balanced to within one socket. nparts is clamped to [1, NSockets]. The
// assignment is a pure function of (machine, nparts), so every run over the
// same machine partitions identically regardless of worker count.
func Partition(m *Machine, nparts int) *PartitionMap {
	if nparts < 1 {
		nparts = 1
	}
	if nparts > m.NSockets {
		nparts = m.NSockets
	}
	pm := &PartitionMap{m: m, nparts: nparts, of: make([]int, m.NSockets)}
	for s := 0; s < m.NSockets; s++ {
		// Socket s lands in partition floor(s*nparts/NSockets): contiguous
		// blocks, sizes differing by at most one.
		pm.of[s] = s * nparts / m.NSockets
	}
	return pm
}

// PerSocket partitions m with one partition per socket — the finest
// decomposition, and the default for the parallel engine.
func PerSocket(m *Machine) *PartitionMap { return Partition(m, m.NSockets) }

// NParts returns the number of partitions.
func (pm *PartitionMap) NParts() int { return pm.nparts }

// Part returns the partition of socket s.
func (pm *PartitionMap) Part(s SocketID) int { return pm.of[s] }

// PartOfCore returns the partition of the socket housing core c.
func (pm *PartitionMap) PartOfCore(c CoreID) int { return pm.of[pm.m.Socket(c)] }

// String implements fmt.Stringer.
func (pm *PartitionMap) String() string {
	return fmt.Sprintf("%s into %d partitions", pm.m.Name, pm.nparts)
}
