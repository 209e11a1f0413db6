package interconnect

import (
	"testing"

	"multikernel/internal/topo"
)

// eagerFabric is the reference for Fabric's deferred accounting: it charges
// every link of a route at the call, and every link of a broadcast tree
// once per call by generation marks, as the fabric did before it recorded
// traffic per socket pair.
type eagerFabric struct {
	m       *topo.Machine
	traffic []uint64
	gen     uint64
	mark    []uint64
}

func newEager(m *topo.Machine) *eagerFabric {
	n := m.NSockets * m.NSockets
	return &eagerFabric{m: m, traffic: make([]uint64, n), mark: make([]uint64, n)}
}

func (r *eagerFabric) link(a, b topo.SocketID) int { return int(a)*r.m.NSockets + int(b) }

func (r *eagerFabric) charge(a, b topo.SocketID, dwords int) {
	for a != b {
		next := r.m.NextHop(a, b)
		r.traffic[r.link(a, next)] += uint64(dwords)
		a = next
	}
}

func (r *eagerFabric) broadcast(a topo.SocketID, dwords int) {
	r.gen++
	for s := 0; s < r.m.NSockets; s++ {
		for cur, dst := a, topo.SocketID(s); cur != dst; {
			next := r.m.NextHop(cur, dst)
			if k := r.link(cur, next); r.mark[k] != r.gen {
				r.mark[k] = r.gen
				r.traffic[k] += uint64(dwords)
			}
			cur = next
		}
	}
}

// FuzzFabricCharges decodes its bytes into charges, broadcasts, resets and
// reads on one of three machines, and requires every read to see exactly
// the per-hop reference's traffic on every directed link, in total, and on
// the first link of every route. The first byte picks the machine; each op
// then takes one byte (its low two bits pick the kind) and, for a charge or
// a broadcast, the sockets and a signed dword count from the next bytes.
func FuzzFabricCharges(f *testing.F) {
	// A unicast pattern on the 8x4 machine: probes and data between
	// sockets one to three hops apart, a read, a charge that a reset
	// drops unread, another charge and a read.
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 18, 0, 2, 7, 2, 0, 5, 3, 18, 3, 0, 0, 7, 2, 2, 0, 6, 1, 18, 3})
	// A broadcast pattern on the 4x4 mesh: probes from a corner and the
	// middle, the corner's again, a unicast ack, a read, a reset, then a
	// probe from the far corner and a read.
	f.Add([]byte{1, 1, 0, 2, 1, 5, 2, 1, 0, 2, 0, 5, 0, 2, 3, 2, 3, 1, 15, 2, 3})
	machines := []*topo.Machine{topo.AMD8x4(), topo.Mesh(4), topo.Torus(4)}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := machines[int(data[0])%len(machines)]
		n := m.NSockets
		fab, ref := New(m), newEager(m)
		next := func(i *int) int {
			if *i >= len(data) {
				return 0
			}
			*i++
			return int(data[*i-1])
		}
		check := func(op int) {
			var total uint64
			for a := range n {
				for b := range n {
					sa, sb := topo.SocketID(a), topo.SocketID(b)
					want := ref.traffic[ref.link(sa, sb)]
					if got := fab.LinkDwords(sa, sb); got != want {
						t.Fatalf("op %d: link %d->%d = %d dwords, want %d", op, a, b, got, want)
					}
					total += want
					wantPath := uint64(0)
					if a != b {
						wantPath = ref.traffic[ref.link(sa, m.NextHop(sa, sb))]
					}
					if got := fab.PathDwords(sa, sb); got != wantPath {
						t.Fatalf("op %d: path %d->%d = %d dwords, want %d", op, a, b, got, wantPath)
					}
				}
			}
			if got := fab.TotalDwords(); got != total {
				t.Fatalf("op %d: total = %d dwords, want %d", op, got, total)
			}
		}
		op := 0
		for i := 1; i < len(data); op++ {
			switch next(&i) % 4 {
			case 0:
				a, b := topo.SocketID(next(&i)%n), topo.SocketID(next(&i)%n)
				dw := int(int8(next(&i)))
				fab.Charge(a, b, dw)
				ref.charge(a, b, dw)
			case 1:
				a := topo.SocketID(next(&i) % n)
				dw := int(int8(next(&i)))
				fab.ChargeBroadcast(a, dw)
				ref.broadcast(a, dw)
			case 2:
				fab.Reset()
				clear(ref.traffic)
			case 3:
				check(op)
			}
		}
		check(op)
	})
}
