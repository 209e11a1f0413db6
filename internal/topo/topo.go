// Package topo describes simulated machine topologies: sockets, dies, cores,
// cache sharing, NUMA layout and the point-to-point interconnect between
// sockets, together with the per-machine cost parameters that drive the cache
// and kernel models.
//
// The four predefined machines mirror the paper's test platforms (§4.1):
// a 2×4-core Intel system, and 2×2-, 4×4- and 8×4-core AMD systems, the last
// with the HyperTransport square-grid interconnect of the paper's Figure 2.
// Synthetic mesh machines support beyond-32-core scalability runs.
package topo

import (
	"fmt"

	"multikernel/internal/sim"
)

// CoreID identifies a core, in [0, NumCores).
type CoreID int

// SocketID identifies a processor package, in [0, NSockets).
type SocketID int

// Link is an undirected interconnect link between two sockets.
type Link struct {
	A, B SocketID
}

// CostParams are the calibrated per-machine latency and cost constants, in
// cycles. Cache-transfer constants are one coherence transaction (probe +
// data) between the named domains; software costs model the CPU driver paths.
type CostParams struct {
	// Core-local accesses.
	L1Hit      sim.Time // load/store hit in the private cache
	Store      sim.Time // store issue cost when line already owned
	StoreIssue sim.Time // store-buffer issue cost for an uncontended store miss

	// Coherence transaction latencies (ownership transfer or line fetch).
	IntraDie    sim.Time // between cores sharing a die cache (Intel shared L2)
	IntraSocket sim.Time // within one socket (shared L3 / local snoop)
	RemoteBase  sim.Time // cross-socket base (includes broadcast probe)
	RemoteHop   sim.Time // additional per interconnect hop to the data source

	// Memory.
	DRAMLocal     sim.Time // fetch from the socket's local memory controller
	DRAMRemoteHop sim.Time // extra per hop to a remote home node
	HomeRoute     sim.Time // per-hop cost of routing a coherence transaction via the line's home node

	// Coherence-mode costs (zero on the paper machines, whose RemoteBase
	// folds the broadcast-probe cost in; nonzero on the scaled mesh/torus
	// machines where the two coherence modes genuinely diverge).
	SnoopPerSocket sim.Time // broadcast mode: per-remote-socket serialization of one snoop broadcast
	DirLookup      sim.Time // directory mode: home-node directory lookup/indirection per remote transaction

	// Kernel and CPU-driver software costs.
	Trap       sim.Time // hardware trap/interrupt entry+exit (paper: ~800)
	Syscall    sim.Time // system-call entry+exit fast path
	CSwitch    sim.Time // context switch between dispatchers on one core
	Upcall     sim.Time // scheduler-activation upcall into a dispatcher
	Dispatch   sim.Time // user-level message/thread dispatch loop iteration
	IPIDeliver sim.Time // sending one inter-processor interrupt
	TLBInval   sim.Time // invlpg on one core (paper: 95–320)
	TLBFill    sim.Time // refilling one TLB entry (page-table walk)
}

// Machine is an immutable description of a simulated multiprocessor.
type Machine struct {
	Name           string
	ClockGHz       float64
	NSockets       int
	DiesPerSocket  int
	CoresPerSocket int  // total per socket, across its dies
	SharedDieCache bool // cores on one die share a cache (Intel L2)
	SingleMemCtrl  bool // one external memory controller (Intel FSB system)
	IOSocket       SocketID
	Links          []Link
	Costs          CostParams

	// Grid geometry, set by the Mesh/Torus builders: routing is then
	// dimension-ordered (X first, then Y) instead of BFS, the deterministic
	// XY routing of network-on-chip fabrics.
	gridNX, gridNY int
	gridWrap       bool

	dist [][]int      // socket-to-socket hop counts
	next [][]SocketID // next hop on a shortest path
}

// finish validates the machine and computes routing tables.
func (m *Machine) finish() *Machine {
	if m.NSockets <= 0 || m.CoresPerSocket <= 0 || m.DiesPerSocket <= 0 {
		panic("topo: machine must have sockets, dies and cores")
	}
	if m.CoresPerSocket%m.DiesPerSocket != 0 {
		panic("topo: cores per socket must divide evenly into dies")
	}
	n := m.NSockets
	const inf = 1 << 30
	m.dist = make([][]int, n)
	m.next = make([][]SocketID, n)
	adj := make([][]SocketID, n)
	for _, l := range m.Links {
		if int(l.A) >= n || int(l.B) >= n || l.A < 0 || l.B < 0 || l.A == l.B {
			panic(fmt.Sprintf("topo: bad link %v in %s", l, m.Name))
		}
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	if m.gridNX > 0 {
		m.finishGrid()
		return m
	}
	for s := 0; s < n; s++ {
		d := make([]int, n)
		nx := make([]SocketID, n)
		for i := range d {
			d[i] = inf
			nx[i] = -1
		}
		d[s] = 0
		queue := []SocketID{SocketID(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if d[v] == inf {
					d[v] = d[u] + 1
					if u == SocketID(s) {
						nx[v] = v
					} else {
						nx[v] = nx[u]
					}
					queue = append(queue, v)
				}
			}
		}
		if n > 1 {
			for i, dv := range d {
				if dv == inf {
					panic(fmt.Sprintf("topo: socket %d unreachable from %d in %s", i, s, m.Name))
				}
			}
		}
		m.dist[s] = d
		m.next[s] = nx
	}
	return m
}

// finishGrid fills the routing tables of a gridNX×gridNY machine
// analytically with dimension-ordered (XY) routing: a transaction first
// travels along X to the destination column, then along Y. On a torus each
// dimension wraps and the shorter direction wins, ties broken toward
// increasing coordinates. This is the deterministic routing of
// network-on-chip meshes, and — unlike BFS — independent of link order.
func (m *Machine) finishGrid() {
	nx, ny := m.gridNX, m.gridNY
	n := m.NSockets
	if nx*ny != n {
		panic(fmt.Sprintf("topo: grid %dx%d does not cover %d sockets in %s", nx, ny, n, m.Name))
	}
	// step returns the per-dimension hop count and the first move (-1, 0, +1)
	// from coordinate a to b in a dimension of size k.
	step := func(a, b, k int) (int, int) {
		if a == b {
			return 0, 0
		}
		d := b - a
		if d < 0 {
			d = -d
		}
		if !m.gridWrap {
			if b > a {
				return d, 1
			}
			return d, -1
		}
		wrap := k - d
		switch {
		case d < wrap:
			if b > a {
				return d, 1
			}
			return d, -1
		case wrap < d:
			if b > a {
				return wrap, -1
			}
			return wrap, 1
		default: // tie: route toward increasing coordinates
			return d, 1
		}
	}
	for s := 0; s < n; s++ {
		d := make([]int, n)
		nxt := make([]SocketID, n)
		sx, sy := s%nx, s/nx
		for t := 0; t < n; t++ {
			if t == s {
				nxt[t] = -1
				continue
			}
			tx, ty := t%nx, t/nx
			dx, mx := step(sx, tx, nx)
			dy, my := step(sy, ty, ny)
			d[t] = dx + dy
			hx, hy := sx, sy
			if mx != 0 {
				hx = (sx + mx + nx) % nx
			} else {
				hy = (sy + my + ny) % ny
			}
			nxt[t] = SocketID(hy*nx + hx)
		}
		m.dist[s] = d
		m.next[s] = nxt
	}
}

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return m.NSockets * m.CoresPerSocket }

// Socket returns the socket housing core c.
func (m *Machine) Socket(c CoreID) SocketID {
	return SocketID(int(c) / m.CoresPerSocket)
}

// Die returns the global die index housing core c.
func (m *Machine) Die(c CoreID) int {
	perDie := m.CoresPerSocket / m.DiesPerSocket
	return int(c) / perDie
}

// SameSocket reports whether two cores share a socket.
func (m *Machine) SameSocket(a, b CoreID) bool { return m.Socket(a) == m.Socket(b) }

// SameDie reports whether two cores share a die.
func (m *Machine) SameDie(a, b CoreID) bool { return m.Die(a) == m.Die(b) }

// CoresOf returns the cores of socket s in ascending order.
func (m *Machine) CoresOf(s SocketID) []CoreID {
	out := make([]CoreID, m.CoresPerSocket)
	base := int(s) * m.CoresPerSocket
	for i := range out {
		out[i] = CoreID(base + i)
	}
	return out
}

// Hops returns the interconnect hop count between two sockets (0 if equal).
func (m *Machine) Hops(a, b SocketID) int { return m.dist[a][b] }

// CoreHops returns the hop count between the sockets of two cores.
func (m *Machine) CoreHops(a, b CoreID) int { return m.Hops(m.Socket(a), m.Socket(b)) }

// MaxHops returns the interconnect diameter.
func (m *Machine) MaxHops() int {
	max := 0
	for _, row := range m.dist {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// NextHop returns the socket after a on the shortest path from a to b
// (a != b). Walking it until b is reached visits Route(a, b) without
// allocating.
func (m *Machine) NextHop(a, b SocketID) SocketID { return m.next[a][b] }

// Route returns the socket sequence of a shortest path from a to b,
// excluding a itself. It is empty when a == b.
func (m *Machine) Route(a, b SocketID) []SocketID {
	var out []SocketID
	for a != b {
		a = m.NextHop(a, b)
		out = append(out, a)
	}
	return out
}

// TransferLat returns the latency of one coherence transaction that moves a
// line (or its ownership) from core src to core dst.
func (m *Machine) TransferLat(dst, src CoreID) sim.Time {
	c := &m.Costs
	switch {
	case dst == src:
		return c.L1Hit
	case m.SharedDieCache && m.SameDie(dst, src):
		return c.IntraDie
	case m.SameSocket(dst, src):
		return c.IntraSocket
	default:
		return c.RemoteBase + sim.Time(m.CoreHops(dst, src))*c.RemoteHop
	}
}

// MemLat returns the latency for core c to fetch a line from memory homed on
// socket home.
func (m *Machine) MemLat(c CoreID, home SocketID) sim.Time {
	p := &m.Costs
	if m.SingleMemCtrl {
		return p.DRAMLocal
	}
	return p.DRAMLocal + sim.Time(m.Hops(m.Socket(c), home))*p.DRAMRemoteHop
}

// Nanoseconds converts cycles to nanoseconds on this machine.
func (m *Machine) Nanoseconds(t sim.Time) float64 { return float64(t) / m.ClockGHz }

// String implements fmt.Stringer.
func (m *Machine) String() string {
	return fmt.Sprintf("%s (%d sockets × %d cores @ %.2fGHz)",
		m.Name, m.NSockets, m.CoresPerSocket, m.ClockGHz)
}
