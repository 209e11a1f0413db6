package topo

import "testing"

func TestPartitionBalancedContiguous(t *testing.T) {
	for _, m := range AllMachines() {
		for nparts := 1; nparts <= m.NSockets; nparts++ {
			pm := Partition(m, nparts)
			if pm.NParts() != nparts {
				t.Fatalf("%s: NParts() = %d, want %d", m.Name, pm.NParts(), nparts)
			}
			// Contiguous: partition ids are non-decreasing in socket order and
			// cover [0, nparts) without gaps.
			prev := 0
			sizes := make([]int, nparts)
			for s := 0; s < m.NSockets; s++ {
				p := pm.Part(SocketID(s))
				if p < prev || p > prev+1 {
					t.Fatalf("%s nparts=%d: socket %d in partition %d after partition %d", m.Name, nparts, s, p, prev)
				}
				prev = p
				sizes[p]++
			}
			if prev != nparts-1 {
				t.Fatalf("%s nparts=%d: highest partition is %d", m.Name, nparts, prev)
			}
			// Balanced to within one socket.
			min, max := m.NSockets, 0
			for _, n := range sizes {
				if n < min {
					min = n
				}
				if n > max {
					max = n
				}
			}
			if max-min > 1 {
				t.Errorf("%s nparts=%d: partition sizes %v differ by more than one", m.Name, nparts, sizes)
			}
			// Every core's partition matches its socket's.
			for c := 0; c < m.NumCores(); c++ {
				if pm.PartOfCore(CoreID(c)) != pm.Part(m.Socket(CoreID(c))) {
					t.Fatalf("%s nparts=%d: core %d partition disagrees with its socket", m.Name, nparts, c)
				}
			}
		}
	}
}

func TestPartitionClamp(t *testing.T) {
	m := AMD8x4()
	if got := Partition(m, 0).NParts(); got != 1 {
		t.Errorf("nparts=0 clamps to %d, want 1", got)
	}
	if got := Partition(m, 100).NParts(); got != m.NSockets {
		t.Errorf("nparts=100 clamps to %d, want %d", got, m.NSockets)
	}
}

func TestPartitionSocketsAndCores(t *testing.T) {
	m := AMD8x4()
	pm := Partition(m, 4) // 8 sockets -> 2 per partition
	sockets := make([]int, pm.NParts())
	cores := make([]int, pm.NParts())
	for s := 0; s < m.NSockets; s++ {
		sockets[pm.Part(SocketID(s))]++
	}
	for c := 0; c < m.NumCores(); c++ {
		p := pm.PartOfCore(CoreID(c))
		if p != pm.Part(m.Socket(CoreID(c))) {
			t.Fatalf("core %d in partition %d, its socket in %d", c, p, pm.Part(m.Socket(CoreID(c))))
		}
		cores[p]++
	}
	for p := range sockets {
		if sockets[p] != 2 || cores[p] != 2*m.CoresPerSocket {
			t.Fatalf("partition %d has %d sockets and %d cores, want 2 and %d", p, sockets[p], cores[p], 2*m.CoresPerSocket)
		}
	}
}

func TestPerSocket(t *testing.T) {
	m := AMD8x4()
	pm := PerSocket(m)
	if pm.NParts() != m.NSockets {
		t.Fatalf("PerSocket NParts() = %d, want %d", pm.NParts(), m.NSockets)
	}
	for s := 0; s < m.NSockets; s++ {
		if pm.Part(SocketID(s)) != s {
			t.Errorf("socket %d in partition %d under PerSocket", s, pm.Part(SocketID(s)))
		}
	}
}
