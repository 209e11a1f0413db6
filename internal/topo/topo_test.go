package topo

import (
	"testing"
	"testing/quick"

	"multikernel/internal/sim"
)

func TestPredefinedMachineShapes(t *testing.T) {
	cases := []struct {
		m       *Machine
		cores   int
		sockets int
		maxHops int
	}{
		{Intel2x4(), 8, 2, 1},
		{AMD2x2(), 4, 2, 1},
		{AMD4x4(), 16, 4, 2},
		{AMD8x4(), 32, 8, 4},
	}
	for _, c := range cases {
		if got := c.m.NumCores(); got != c.cores {
			t.Errorf("%s: cores=%d, want %d", c.m.Name, got, c.cores)
		}
		if c.m.NSockets != c.sockets {
			t.Errorf("%s: sockets=%d, want %d", c.m.Name, c.m.NSockets, c.sockets)
		}
		if got := c.m.MaxHops(); got != c.maxHops {
			t.Errorf("%s: maxHops=%d, want %d", c.m.Name, got, c.maxHops)
		}
	}
}

func TestSocketAssignment(t *testing.T) {
	m := AMD4x4()
	if m.Socket(0) != 0 || m.Socket(3) != 0 || m.Socket(4) != 1 || m.Socket(15) != 3 {
		t.Fatal("socket assignment wrong")
	}
	if !m.SameSocket(4, 7) || m.SameSocket(3, 4) {
		t.Fatal("SameSocket wrong")
	}
}

func TestIntelDieSharing(t *testing.T) {
	m := Intel2x4()
	// 2 cores per die: cores 0,1 share a die; 1,2 do not.
	if !m.SameDie(0, 1) {
		t.Fatal("cores 0,1 should share a die")
	}
	if m.SameDie(1, 2) {
		t.Fatal("cores 1,2 should not share a die")
	}
	if !m.SameSocket(0, 3) {
		t.Fatal("cores 0,3 share socket 0")
	}
}

func TestHopsSymmetric(t *testing.T) {
	for _, m := range AllMachines() {
		for a := 0; a < m.NSockets; a++ {
			for b := 0; b < m.NSockets; b++ {
				if m.Hops(SocketID(a), SocketID(b)) != m.Hops(SocketID(b), SocketID(a)) {
					t.Fatalf("%s: hops(%d,%d) asymmetric", m.Name, a, b)
				}
			}
			if m.Hops(SocketID(a), SocketID(a)) != 0 {
				t.Fatalf("%s: self-hops nonzero", m.Name)
			}
		}
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	for _, m := range AllMachines() {
		for a := 0; a < m.NSockets; a++ {
			for b := 0; b < m.NSockets; b++ {
				r := m.Route(SocketID(a), SocketID(b))
				if len(r) != m.Hops(SocketID(a), SocketID(b)) {
					t.Fatalf("%s: route %d->%d len %d, hops %d", m.Name, a, b, len(r), m.Hops(SocketID(a), SocketID(b)))
				}
				if len(r) > 0 && r[len(r)-1] != SocketID(b) {
					t.Fatalf("%s: route %d->%d ends at %d", m.Name, a, b, r[len(r)-1])
				}
			}
		}
	}
}

func TestRouteFollowsLinks(t *testing.T) {
	for _, m := range AllMachines() {
		linked := map[[2]SocketID]bool{}
		for _, l := range m.Links {
			linked[[2]SocketID{l.A, l.B}] = true
			linked[[2]SocketID{l.B, l.A}] = true
		}
		for a := 0; a < m.NSockets; a++ {
			for b := 0; b < m.NSockets; b++ {
				cur := SocketID(a)
				for _, n := range m.Route(SocketID(a), SocketID(b)) {
					if !linked[[2]SocketID{cur, n}] {
						t.Fatalf("%s: route %d->%d uses non-link %d-%d", m.Name, a, b, cur, n)
					}
					cur = n
				}
			}
		}
	}
}

func TestAMD8x4MatchesFigure2(t *testing.T) {
	m := AMD8x4()
	// Socket 7 and socket 0 are at opposite grid corners.
	if got := m.Hops(7, 0); got != 4 {
		t.Fatalf("hops(7,0)=%d, want 4", got)
	}
	if got := m.Hops(0, 1); got != 1 {
		t.Fatalf("hops(0,1)=%d, want 1", got)
	}
	if got := m.Hops(5, 2); got != 1 {
		t.Fatalf("hops(5,2)=%d, want 1", got)
	}
}

func TestTransferLatOrdering(t *testing.T) {
	// For every machine: self <= same-die <= same-socket <= remote, and
	// remote latency is nondecreasing in hop count.
	for _, m := range AllMachines() {
		local := m.TransferLat(0, 0)
		sameSocket := m.TransferLat(0, 1)
		if local > sameSocket {
			t.Errorf("%s: local %d > same-socket %d", m.Name, local, sameSocket)
		}
		remote := m.TransferLat(0, CoreID(m.CoresPerSocket))
		if sameSocket > remote {
			t.Errorf("%s: same-socket %d > remote %d", m.Name, sameSocket, remote)
		}
	}
	m := AMD8x4()
	oneHop := m.TransferLat(0, m.CoresOf(1)[0]) // sockets 0-1 adjacent
	twoHop := m.TransferLat(0, m.CoresOf(2)[0]) // 0-4-2
	if h := m.Hops(0, 2); h != 2 {
		t.Fatalf("precondition: hops(0,2)=%d, want 2", h)
	}
	if oneHop >= twoHop {
		t.Errorf("one-hop %d not < two-hop %d", oneHop, twoHop)
	}
}

func TestIntelIntraDieCheapest(t *testing.T) {
	m := Intel2x4()
	die := m.TransferLat(0, 1)    // same die
	socket := m.TransferLat(0, 2) // same socket, other die
	remote := m.TransferLat(0, 4) // other socket
	if !(die < socket && socket <= remote) {
		t.Fatalf("want die < socket <= remote, got %d %d %d", die, socket, remote)
	}
}

func TestMemLat(t *testing.T) {
	m := AMD8x4()
	local := m.MemLat(0, m.Socket(0))
	remote := m.MemLat(0, 7)
	if local >= remote {
		t.Fatalf("local DRAM %d should be < remote %d", local, remote)
	}
	i := Intel2x4()
	if i.MemLat(0, 0) != i.MemLat(0, 1) {
		t.Fatal("single-memory-controller machine should have uniform DRAM latency")
	}
}

// Cycles converts a duration in nanoseconds to cycles on this machine, the
// inverse of Nanoseconds.
func (m *Machine) Cycles(ns float64) sim.Time { return sim.Time(ns * m.ClockGHz) }

func TestCyclesNanosecondsRoundTrip(t *testing.T) {
	m := AMD2x2() // 2.8 GHz
	ns := m.Nanoseconds(2800)
	if ns < 999.999 || ns > 1000.001 {
		t.Fatalf("2800 cycles = %vns, want 1000", ns)
	}
	if got := m.Cycles(100); got != 280 {
		t.Fatalf("100ns = %d cycles, want 280", got)
	}
}

func TestMeshConstruction(t *testing.T) {
	m := MeshXY(4, 4, 2)
	if m.NumCores() != 32 {
		t.Fatalf("cores=%d, want 32", m.NumCores())
	}
	if got := m.MaxHops(); got != 6 {
		t.Fatalf("4x4 mesh diameter=%d, want 6", got)
	}
	// Corner-to-corner route must have length 6.
	if r := m.Route(0, 15); len(r) != 6 {
		t.Fatalf("corner route len=%d, want 6", len(r))
	}
}

func TestMeshHopsAreManhattanProperty(t *testing.T) {
	m := MeshXY(5, 3, 1)
	f := func(a, b uint8) bool {
		sa, sb := SocketID(int(a)%15), SocketID(int(b)%15)
		ax, ay := int(sa)%5, int(sa)/5
		bx, by := int(sb)%5, int(sb)/5
		manhattan := abs(ax-bx) + abs(ay-by)
		return m.Hops(sa, sb) == manhattan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestScaledMachineShapes(t *testing.T) {
	cases := []struct {
		m       *Machine
		cores   int
		maxHops int
	}{
		{Mesh(4), 64, 6}, // 4x4 mesh: diameter 3+3
		{Mesh(16), 1024, 30},
		{Torus(4), 64, 4}, // wrap halves each dimension: 2+2
		{Torus(8), 256, 8},
	}
	for _, c := range cases {
		if got := c.m.NumCores(); got != c.cores {
			t.Errorf("%s: cores=%d, want %d", c.m.Name, got, c.cores)
		}
		if got := c.m.MaxHops(); got != c.maxHops {
			t.Errorf("%s: maxHops=%d, want %d", c.m.Name, got, c.maxHops)
		}
	}
}

// Every scaled machine's routes must follow real links and match the hop
// count — the XY tables are built analytically, so cross-check them against
// the link list the fabric charges.
func TestScaledRoutesFollowLinks(t *testing.T) {
	for _, m := range []*Machine{Mesh(3), Mesh(5), Torus(3), Torus(5)} {
		linked := map[[2]SocketID]bool{}
		for _, l := range m.Links {
			linked[[2]SocketID{l.A, l.B}] = true
			linked[[2]SocketID{l.B, l.A}] = true
		}
		for a := 0; a < m.NSockets; a++ {
			for b := 0; b < m.NSockets; b++ {
				r := m.Route(SocketID(a), SocketID(b))
				if len(r) != m.Hops(SocketID(a), SocketID(b)) {
					t.Fatalf("%s: route %d->%d len %d, hops %d", m.Name, a, b, len(r), m.Hops(SocketID(a), SocketID(b)))
				}
				cur := SocketID(a)
				for _, n := range r {
					if !linked[[2]SocketID{cur, n}] {
						t.Fatalf("%s: route %d->%d uses non-link %d-%d", m.Name, a, b, cur, n)
					}
					cur = n
				}
				if cur != SocketID(b) {
					t.Fatalf("%s: route %d->%d ends at %d", m.Name, a, b, cur)
				}
			}
		}
	}
}

func TestMeshXYRoutingIsManhattan(t *testing.T) {
	m := Mesh(5)
	f := func(a, b uint8) bool {
		sa, sb := SocketID(int(a)%25), SocketID(int(b)%25)
		ax, ay := int(sa)%5, int(sa)/5
		bx, by := int(sb)%5, int(sb)/5
		return m.Hops(sa, sb) == abs(ax-bx)+abs(ay-by)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Dimension order: X is resolved before Y. From (0,0) to (2,2) the first
	// hop is (1,0) = socket 1, not (0,1) = socket 5.
	if r := m.Route(0, 12); r[0] != 1 {
		t.Fatalf("XY routing: first hop %d, want 1", r[0])
	}
}

func TestTorusWrapDistances(t *testing.T) {
	m := Torus(5)
	// Sockets 0 (0,0) and 4 (4,0): one wrap hop, not four mesh hops.
	if got := m.Hops(0, 4); got != 1 {
		t.Fatalf("hops(0,4)=%d, want 1 (wrap)", got)
	}
	// (0,0) to (3,3): wrap both dimensions, 2+2.
	if got := m.Hops(0, 18); got != 4 {
		t.Fatalf("hops(0,18)=%d, want 4", got)
	}
	// Symmetry survives the tie-break (distance 2 either way at k=4).
	e := Torus(4)
	for a := 0; a < e.NSockets; a++ {
		for b := 0; b < e.NSockets; b++ {
			if e.Hops(SocketID(a), SocketID(b)) != e.Hops(SocketID(b), SocketID(a)) {
				t.Fatalf("torus-4 hops(%d,%d) asymmetric", a, b)
			}
		}
	}
}

func TestCoresOf(t *testing.T) {
	m := AMD4x4()
	cores := m.CoresOf(2)
	if len(cores) != 4 || cores[0] != 8 || cores[3] != 11 {
		t.Fatalf("CoresOf(2)=%v", cores)
	}
}

func TestByName(t *testing.T) {
	if ByName("4x4-core AMD") == nil {
		t.Fatal("ByName failed for known machine")
	}
	if ByName("nope") != nil {
		t.Fatal("ByName returned machine for unknown name")
	}
}

func TestBadMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unreachable socket")
		}
	}()
	m := &Machine{Name: "broken", ClockGHz: 1, NSockets: 3, DiesPerSocket: 1, CoresPerSocket: 1,
		Links: []Link{{0, 1}}} // socket 2 unreachable
	m.finish()
}
