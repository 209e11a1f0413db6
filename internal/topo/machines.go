package topo

import "fmt"

// The cost parameters below are calibrated so that the microbenchmark tables
// of the paper (Tables 1–3) come out in the right range on each machine; the
// derivations are recorded in EXPERIMENTS.md. On the four paper machines the
// coherence-transaction constants fold the broadcast-probe cost into
// RemoteBase (on HyperTransport every transaction probes every node, so
// distance to the data source adds little and SnoopPerSocket stays zero);
// the scaled Mesh/Torus machines instead separate the mode-dependent
// costs into SnoopPerSocket (broadcast) and DirLookup (directory) so the two
// coherence modes genuinely diverge as socket counts grow.

// Intel2x4 models the 2×4-core Intel s5000XVN system: two quad-core Xeon
// X5355 packages, each with two dies of two cores sharing a 4MB L2, a shared
// front-side bus and a single external memory controller with snoop filter.
func Intel2x4() *Machine {
	m := &Machine{
		Name:           "2x4-core Intel",
		ClockGHz:       2.66,
		NSockets:       2,
		DiesPerSocket:  2,
		CoresPerSocket: 4,
		SharedDieCache: true,
		SingleMemCtrl:  true,
		IOSocket:       0,
		Links:          []Link{{0, 1}},
		Costs: CostParams{
			L1Hit: 3, Store: 3, StoreIssue: 25,
			IntraDie:    60,  // through the shared on-die L2
			IntraSocket: 290, // different dies: across the FSB
			RemoteBase:  420, RemoteHop: 10,
			DRAMLocal: 260, DRAMRemoteHop: 0, HomeRoute: 0, DirLookup: 48,
			Trap: 700, Syscall: 140, CSwitch: 280, Upcall: 170,
			Dispatch: 180, IPIDeliver: 350, TLBInval: 120, TLBFill: 190,
		},
	}
	return m.finish()
}

// AMD2x2 models the 2×2-core AMD system: two dual-core Opteron 2220 packages
// with private 1MB L2s, local memory controllers and two HyperTransport
// links.
func AMD2x2() *Machine {
	m := &Machine{
		Name:           "2x2-core AMD",
		ClockGHz:       2.8,
		NSockets:       2,
		DiesPerSocket:  1,
		CoresPerSocket: 2,
		IOSocket:       0,
		Links:          []Link{{0, 1}},
		Costs: CostParams{
			L1Hit: 3, Store: 3, StoreIssue: 25,
			IntraDie:    300, // no shared cache: local snoop between the two cores
			IntraSocket: 300,
			RemoteBase:  355, RemoteHop: 8,
			DRAMLocal: 220, DRAMRemoteHop: 60, HomeRoute: 12, DirLookup: 40,
			Trap: 640, Syscall: 120, CSwitch: 250, Upcall: 150,
			Dispatch: 160, IPIDeliver: 320, TLBInval: 100, TLBFill: 170,
		},
	}
	return m.finish()
}

// AMD4x4 models the 4×4-core AMD system: four quad-core Opteron 8380 packages
// with private 512kB L2s and a 6MB shared L3 per socket, connected in a
// square by four HyperTransport links.
func AMD4x4() *Machine {
	m := &Machine{
		Name:           "4x4-core AMD",
		ClockGHz:       2.5,
		NSockets:       4,
		DiesPerSocket:  1,
		CoresPerSocket: 4,
		IOSocket:       0,
		Links:          []Link{{0, 1}, {1, 3}, {3, 2}, {2, 0}},
		Costs: CostParams{
			L1Hit: 3, Store: 3, StoreIssue: 25,
			IntraDie:    300, // via the shared L3
			IntraSocket: 300,
			RemoteBase:  390, RemoteHop: 7,
			DRAMLocal: 250, DRAMRemoteHop: 55, HomeRoute: 12, DirLookup: 44,
			Trap: 790, Syscall: 220, CSwitch: 470, Upcall: 330,
			Dispatch: 368, IPIDeliver: 400, TLBInval: 200, TLBFill: 260,
		},
	}
	return m.finish()
}

// AMD8x4 models the 8×4-core AMD system: eight quad-core Opteron 8350
// packages with 2MB shared L3s, wired in the paper's Figure 2 grid — two rows
// of four sockets with row and column HyperTransport links.
func AMD8x4() *Machine {
	m := &Machine{
		Name:           "8x4-core AMD",
		ClockGHz:       2.0,
		NSockets:       8,
		DiesPerSocket:  1,
		CoresPerSocket: 4,
		IOSocket:       0,
		// Figure 2 layout: top row 7-5-3-1, bottom row 6-2-4-0, with
		// vertical links 7-6, 5-2, 3-4, 1-0.
		Links: []Link{
			{7, 5}, {5, 3}, {3, 1},
			{6, 2}, {2, 4}, {4, 0},
			{7, 6}, {5, 2}, {3, 4}, {1, 0},
		},
		Costs: CostParams{
			L1Hit: 3, Store: 3, StoreIssue: 25,
			IntraDie:    390, // via the shared L3
			IntraSocket: 390,
			RemoteBase:  460, RemoteHop: 4,
			DRAMLocal: 280, DRAMRemoteHop: 50, HomeRoute: 22, DirLookup: 48,
			Trap: 800, Syscall: 230, CSwitch: 490, Upcall: 350,
			Dispatch: 404, IPIDeliver: 420, TLBInval: 210, TLBFill: 270,
		},
	}
	return m.finish()
}

// MeshXY builds a synthetic nx×ny socket grid with the given cores per
// socket, using the 8×4 AMD cost parameters unchanged (BFS routing, no
// mode-dependent snoop/directory costs). It models the network-on-chip style
// machines the paper anticipates (§2.3) and supports scalability sweeps past
// commodity core counts.
func MeshXY(nx, ny, coresPerSocket int) *Machine {
	if nx < 1 || ny < 1 {
		panic("topo: mesh dimensions must be positive")
	}
	m := &Machine{
		Name:           fmt.Sprintf("mesh-%dx%d-%dc", nx, ny, coresPerSocket),
		ClockGHz:       2.0,
		NSockets:       nx * ny,
		DiesPerSocket:  1,
		CoresPerSocket: coresPerSocket,
		IOSocket:       0,
		Links:          gridLinks(nx, ny, false),
		Costs:          AMD8x4().Costs,
	}
	return m.finish()
}

// gridLinks enumerates the links of an nx×ny grid in row-major order: for
// each socket its +X neighbour then its +Y neighbour, with wraparound links
// when wrap is set.
func gridLinks(nx, ny int, wrap bool) []Link {
	var links []Link
	id := func(x, y int) SocketID { return SocketID(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				links = append(links, Link{id(x, y), id(x+1, y)})
			} else if wrap && nx > 2 {
				links = append(links, Link{id(x, y), id(0, y)})
			}
			if y+1 < ny {
				links = append(links, Link{id(x, y), id(x, y+1)})
			} else if wrap && ny > 2 {
				links = append(links, Link{id(x, y), id(x, 0)})
			}
		}
	}
	return links
}

// scaledCosts are the AMD8x4 cost parameters with the mode-dependent
// coherence costs separated out: SnoopPerSocket is the per-remote-socket
// serialization a broadcast snoop pays (every socket's tag filter must
// answer before the transaction completes), DirLookup the flat home-node
// directory indirection a targeted transaction pays instead. With these
// values broadcast wins below ~14 sockets and directory above — the
// crossover the coherence experiment measures.
func scaledCosts() CostParams {
	c := AMD8x4().Costs
	c.SnoopPerSocket = 4
	c.DirLookup = 52
	return c
}

// Mesh builds a k×k socket mesh with 4 cores per socket (64 cores at k=4,
// 1024 at k=16), dimension-ordered XY routing and the mode-dependent
// coherence costs of scaledCosts. This is the primary
// scaled machine of the 64–1024 core sweeps.
func Mesh(k int) *Machine {
	if k < 2 {
		panic("topo: mesh size must be at least 2")
	}
	m := &Machine{
		Name:           fmt.Sprintf("mesh-%d", k),
		ClockGHz:       2.0,
		NSockets:       k * k,
		DiesPerSocket:  1,
		CoresPerSocket: 4,
		IOSocket:       0,
		Links:          gridLinks(k, k, false),
		Costs:          scaledCosts(),
		gridNX:         k,
		gridNY:         k,
	}
	return m.finish()
}

// Torus builds a k×k socket torus: the mesh plus wraparound links in both
// dimensions, halving the diameter. Requires k ≥ 3 (below that the wrap
// links would duplicate mesh links).
func Torus(k int) *Machine {
	if k < 3 {
		panic("topo: torus size must be at least 3")
	}
	m := &Machine{
		Name:           fmt.Sprintf("torus-%d", k),
		ClockGHz:       2.0,
		NSockets:       k * k,
		DiesPerSocket:  1,
		CoresPerSocket: 4,
		IOSocket:       0,
		Links:          gridLinks(k, k, true),
		Costs:          scaledCosts(),
		gridNX:         k,
		gridNY:         k,
		gridWrap:       true,
	}
	return m.finish()
}

// AllMachines returns the paper's four test platforms in the order used by
// its tables.
func AllMachines() []*Machine {
	return []*Machine{Intel2x4(), AMD2x2(), AMD4x4(), AMD8x4()}
}

// ByName returns the predefined machine with the given Name, or nil.
func ByName(name string) *Machine {
	for _, m := range AllMachines() {
		if m.Name == name {
			return m
		}
	}
	return nil
}
