package interconnect

import (
	"fmt"
	"strings"
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

func TestChargeSingleLink(t *testing.T) {
	f := New(topo.AMD2x2())
	f.Charge(0, 1, 18)
	if got := f.LinkDwords(0, 1); got != 18 {
		t.Fatalf("0->1 = %d, want 18", got)
	}
	if got := f.LinkDwords(1, 0); got != 0 {
		t.Fatalf("reverse direction charged: %d", got)
	}
}

func TestChargeSelfIsNoop(t *testing.T) {
	f := New(topo.AMD2x2())
	f.Charge(1, 1, 100)
	if f.TotalDwords() != 0 {
		t.Fatal("self-charge recorded traffic")
	}
}

func TestChargeMultiHop(t *testing.T) {
	m := topo.AMD8x4()
	f := New(m)
	// 0 -> 2 is two hops (0-4-2).
	if m.Hops(0, 2) != 2 {
		t.Fatalf("precondition: hops(0,2)=%d", m.Hops(0, 2))
	}
	f.Charge(0, 2, 10)
	if f.TotalDwords() != 20 {
		t.Fatalf("total=%d, want 20 (10 on each of 2 links)", f.TotalDwords())
	}
	route := m.Route(0, 2)
	if got := f.LinkDwords(0, route[0]); got != 10 {
		t.Fatalf("first link=%d", got)
	}
}

func TestChargeBroadcastChargesEachLinkOnce(t *testing.T) {
	m := topo.AMD4x4()
	f := New(m)
	f.ChargeBroadcast(0, 2)
	// Shortest-path tree from socket 0 in a 4-socket square reaches the 3
	// other sockets over exactly 3 directed links.
	if got := f.TotalDwords(); got != 6 {
		t.Fatalf("total=%d, want 6", got)
	}
}

// TestChargeWalksRoute charges every ordered socket pair, and a broadcast
// from every socket, and requires each link to carry what summing over
// Route gives: the in-place walk charges the same links as the route slice.
func TestChargeWalksRoute(t *testing.T) {
	for _, m := range []*topo.Machine{topo.AMD8x4(), topo.Mesh(8)} {
		t.Run(m.Name, func(t *testing.T) {
			f := New(m)
			want := map[[2]topo.SocketID]uint64{}
			n := topo.SocketID(m.NSockets)
			for a := topo.SocketID(0); a < n; a++ {
				tree := map[[2]topo.SocketID]bool{}
				for b := topo.SocketID(0); b < n; b++ {
					f.Charge(a, b, 3)
					cur := a
					for _, next := range m.Route(a, b) {
						want[[2]topo.SocketID{cur, next}] += 3
						tree[[2]topo.SocketID{cur, next}] = true
						cur = next
					}
				}
				f.ChargeBroadcast(a, 5)
				for k := range tree {
					want[k] += 5
				}
			}
			var total uint64
			for k, v := range want {
				if got := f.LinkDwords(k[0], k[1]); got != v {
					t.Errorf("link %d->%d = %d dwords, want %d", k[0], k[1], got, v)
				}
				total += v
			}
			if got := f.TotalDwords(); got != total {
				t.Errorf("total = %d dwords, want %d (charge off the routes)", got, total)
			}
			last := n - 1
			if allocs := testing.AllocsPerRun(100, func() { f.Charge(0, last, 1) }); allocs != 0 {
				t.Errorf("Charge allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

func TestPathDwords(t *testing.T) {
	f := New(topo.AMD2x2())
	f.Charge(0, 1, 7)
	f.Charge(1, 0, 3)
	if got := f.PathDwords(0, 1); got != 7 {
		t.Fatalf("path 0->1 = %d", got)
	}
	if got := f.PathDwords(1, 0); got != 3 {
		t.Fatalf("path 1->0 = %d", got)
	}
	if got := f.PathDwords(0, 0); got != 0 {
		t.Fatalf("self path = %d", got)
	}
}

func TestUtilization(t *testing.T) {
	m := topo.AMD2x2() // 2.8 GHz
	f := New(m)
	// 2.8e9 cycles = 1 second. 2e9 dwords = 8 GB on an 8 GB/s link = 100%.
	f.Charge(0, 1, 2_000_000_000)
	u := f.Utilization(0, 1, 2_800_000_000, 8)
	if u < 0.99 || u > 1.01 {
		t.Fatalf("utilization=%v, want ~1.0", u)
	}
	if f.Utilization(0, 1, 0, 8) != 0 {
		t.Fatal("zero elapsed should give zero utilization")
	}
}

func TestReset(t *testing.T) {
	f := New(topo.AMD2x2())
	f.Charge(0, 1, 5)
	f.Reset()
	if f.TotalDwords() != 0 {
		t.Fatal("reset did not clear traffic")
	}
}

// Snapshot returns a human-readable listing of every link that carried
// traffic, ordered by source socket, then destination.
func (f *Fabric) Snapshot() string {
	var b strings.Builder
	for k, v := range f.traffic {
		if v != 0 {
			fmt.Fprintf(&b, "link %d->%d: %d dwords\n", k/f.m.NSockets, k%f.m.NSockets, v)
		}
	}
	return b.String()
}

func TestSnapshotListsLinks(t *testing.T) {
	f := New(topo.AMD2x2())
	f.Charge(0, 1, 5)
	s := f.Snapshot()
	if !strings.Contains(s, "link 0->1: 5 dwords") {
		t.Fatalf("snapshot: %q", s)
	}
}

func TestDegradeDelayFactorAddsPenalty(t *testing.T) {
	m := topo.AMD2x2()
	f := New(m)
	rng := sim.NewRNG(1)
	if f.Degraded() {
		t.Fatal("fresh fabric reports degraded")
	}
	if got := f.TransferPenalty(0, 1, 100, rng); got != 0 {
		t.Fatalf("fault-free penalty=%d, want 0", got)
	}
	f.SetDegrade(0, 1, Degrade{DelayFactor: 3})
	if !f.Degraded() {
		t.Fatal("degraded fabric not reported")
	}
	// DelayFactor 3 adds 2x the base latency on the single crossed link,
	// symmetrically in both directions.
	if got := f.TransferPenalty(0, 1, 100, rng); got != 200 {
		t.Fatalf("penalty=%d, want 200", got)
	}
	if got := f.TransferPenalty(1, 0, 100, rng); got != 200 {
		t.Fatalf("reverse penalty=%d, want 200", got)
	}
	f.ClearDegrade(0, 1)
	if f.Degraded() {
		t.Fatal("degradation not cleared")
	}
	if got := f.TransferPenalty(0, 1, 100, rng); got != 0 {
		t.Fatalf("penalty after clear=%d, want 0", got)
	}
}

func TestDegradeOnlyChargesCrossedLinks(t *testing.T) {
	m := topo.AMD8x4()
	f := New(m)
	rng := sim.NewRNG(1)
	// Degrade a link that is NOT on the 0->4 route.
	f.SetDegrade(2, 6, Degrade{DelayFactor: 10})
	if got := f.TransferPenalty(0, 4, 100, rng); got != 0 {
		t.Fatalf("penalty on unaffected route=%d, want 0", got)
	}
	// Multi-hop route 0->2 crosses 0-4 and 4-2; degrade the second hop.
	route := m.Route(0, 2)
	if len(route) != 2 {
		t.Fatalf("precondition: route 0->2 = %v", route)
	}
	f.SetDegrade(route[0], 2, Degrade{DelayFactor: 2})
	if got := f.TransferPenalty(0, 2, 100, rng); got != 100 {
		t.Fatalf("multi-hop penalty=%d, want 100", got)
	}
}

func TestPartitionedLinkPaysFullRetryBudgetDeterministically(t *testing.T) {
	m := topo.AMD2x2()
	f := New(m)
	rng := sim.NewRNG(9)
	f.SetDegrade(0, 1, Degrade{LossProb: 1})
	// LossProb 1 always exhausts the retry budget: penalty is exactly
	// maxRetransmits full retries, independent of the RNG.
	want := sim.Time(maxRetransmits * 100)
	if got := f.TransferPenalty(0, 1, 100, rng); got != want {
		t.Fatalf("partition penalty=%d, want %d", got, want)
	}
	if f.Retransmits() != maxRetransmits {
		t.Fatalf("retransmits=%d, want %d", f.Retransmits(), maxRetransmits)
	}
}

func TestLossyLinkIsSeedDeterministic(t *testing.T) {
	m := topo.AMD2x2()
	run := func() []sim.Time {
		f := New(m)
		rng := sim.NewRNG(1234)
		f.SetDegrade(0, 1, Degrade{LossProb: 0.4})
		var out []sim.Time
		for i := 0; i < 50; i++ {
			out = append(out, f.TransferPenalty(0, 1, 100, rng))
		}
		return out
	}
	a, b := run(), run()
	var retried bool
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
		if a[i] > 0 {
			retried = true
		}
	}
	if !retried {
		t.Fatal("lossy link never retried in 50 draws at p=0.4")
	}
}
