package interconnect

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

func TestLookaheadPerSocket(t *testing.T) {
	m := topo.AMD8x4()
	// Finest partitioning: the lookahead is the cheapest cross-socket
	// transaction anywhere — adjacent sockets, one hop.
	want := m.Costs.RemoteBase + 1*m.Costs.RemoteHop
	if got := Lookahead(m, topo.PerSocket(m)); got != want {
		t.Errorf("Lookahead(PerSocket) = %d, want %d", got, want)
	}
}

func TestLookaheadSinglePartition(t *testing.T) {
	m := topo.AMD8x4()
	// One partition has no cross-partition traffic at all: the epoch is
	// unbounded and the parallel engine degenerates to a serial run.
	if got := Lookahead(m, topo.Partition(m, 1)); got != sim.Forever {
		t.Errorf("Lookahead(1 partition) = %d, want Forever", got)
	}
}

// Mesh and torus partition maps: the lookahead is the cheapest adjacent
// cross-partition pair, and it is the SAME for every mesh size — growing the
// mesh never grows the epoch width, which is why a per-partition-pair
// lookahead would matter at scale (ROADMAP item 5).
func TestLookaheadMeshTorus(t *testing.T) {
	for _, k := range []int{3, 4, 8, 16} {
		m := topo.Mesh(k)
		want := m.Costs.RemoteBase + 1*m.Costs.RemoteHop
		if got := Lookahead(m, topo.PerSocket(m)); got != want {
			t.Errorf("mesh-%d Lookahead(PerSocket) = %d, want %d", k, got, want)
		}
		// Contiguous halves still touch along a row boundary: adjacent pair.
		if got := Lookahead(m, topo.Partition(m, 2)); got != want {
			t.Errorf("mesh-%d Lookahead(2 parts) = %d, want %d", k, got, want)
		}
	}
	for _, k := range []int{3, 5, 8} {
		m := topo.Torus(k)
		want := m.Costs.RemoteBase + 1*m.Costs.RemoteHop
		if got := Lookahead(m, topo.PerSocket(m)); got != want {
			t.Errorf("torus-%d Lookahead(PerSocket) = %d, want %d", k, got, want)
		}
	}
}

// TestLookaheadMonotone: coarsening the partitioning removes cross-partition
// socket pairs, so the lookahead (a minimum over those pairs) can only grow
// or stay put. Verified against a brute-force recomputation at every width.
func TestLookaheadMonotone(t *testing.T) {
	for _, m := range topo.AllMachines() {
		prev := sim.Time(0)
		for nparts := m.NSockets; nparts >= 1; nparts-- {
			pm := topo.Partition(m, nparts)
			got := Lookahead(m, pm)
			want := sim.Forever
			for a := 0; a < m.NSockets; a++ {
				for b := 0; b < m.NSockets; b++ {
					if a == b || pm.Part(topo.SocketID(a)) == pm.Part(topo.SocketID(b)) {
						continue
					}
					lat := m.Costs.RemoteBase + sim.Time(m.Hops(topo.SocketID(a), topo.SocketID(b)))*m.Costs.RemoteHop
					if lat < want {
						want = lat
					}
				}
			}
			if got != want {
				t.Fatalf("%s nparts=%d: Lookahead = %d, brute force says %d", m.Name, nparts, got, want)
			}
			if got < prev {
				t.Fatalf("%s: lookahead shrank from %d to %d when coarsening to %d partitions", m.Name, prev, got, nparts)
			}
			prev = got
		}
	}
}
