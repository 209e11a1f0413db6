package cache

import (
	"testing"

	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// The MOESI transition table, exercised exhaustively: every starting state of
// the line on the local core (I, S, E, M, O) crossed with every probe (local
// load, local store, remote load, remote store, local flush), asserting the
// resulting states on the local core, the probing remote core and the helper
// sharer that the S and O setups require.
//
// Cores: local = 0 (the core whose state names the row), remote = 1 (the
// prober), helper = 2 (a second sharer so S and O are reachable: a line is
// Shared only with company, and Owned only while a sharer still holds a copy
// of the dirty line).

const moesiAddr = memory.Addr(0x7000)

type moesiRig struct {
	*rig
}

func newMOESIRig() *moesiRig { return &moesiRig{newRig(topo.AMD2x2())} }

// on runs fn as core c's proc to completion (draining any async store).
func (r *moesiRig) on(c topo.CoreID, fn func(p *sim.Proc)) {
	r.e.Spawn("op", func(p *sim.Proc) { fn(p) })
	r.e.Run()
}

func (r *moesiRig) load(c topo.CoreID) { r.on(c, func(p *sim.Proc) { r.sys.Load(p, c, moesiAddr) }) }
func (r *moesiRig) store(c topo.CoreID) {
	r.on(c, func(p *sim.Proc) { r.sys.Store(p, c, moesiAddr, 1) })
}
func (r *moesiRig) flush(c topo.CoreID) { r.on(c, func(p *sim.Proc) { r.sys.Flush(p, c, moesiAddr) }) }

// enter drives the line into the named state on core 0.
func (r *moesiRig) enter(s State) {
	switch s {
	case Invalid:
	case Shared:
		r.load(0)
		r.load(2) // second sharer demotes E to S
	case Exclusive:
		r.load(0)
	case Modified:
		r.store(0)
	case Owned:
		r.store(0) // M...
		r.load(2)  // ...and a remote read leaves the dirty owner in O
	}
}

func TestMOESITransitionTable(t *testing.T) {
	type probe struct {
		name string
		do   func(r *moesiRig)
	}
	probes := []probe{
		{"local-load", func(r *moesiRig) { r.load(0) }},
		{"local-store", func(r *moesiRig) { r.store(0) }},
		{"remote-load", func(r *moesiRig) { r.load(1) }},
		{"remote-store", func(r *moesiRig) { r.store(1) }},
		{"local-flush", func(r *moesiRig) { r.flush(0) }},
	}
	// want[state][probe] = {state of core 0, core 1, core 2} afterwards.
	want := map[State]map[string][3]State{
		Invalid: {
			"local-load":   {Exclusive, Invalid, Invalid},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Invalid, Exclusive, Invalid},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Invalid},
		},
		Shared: { // holders {0,2}, clean, owner 0
			"local-load":   {Shared, Invalid, Shared},
			"local-store":  {Modified, Invalid, Invalid}, // upgrade probes out the helper
			"remote-load":  {Shared, Shared, Shared},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Shared}, // ownerless survivor reads as S
		},
		Exclusive: {
			"local-load":   {Exclusive, Invalid, Invalid},
			"local-store":  {Modified, Invalid, Invalid}, // silent E→M upgrade
			"remote-load":  {Shared, Shared, Invalid},    // clean fill, no writeback needed
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Invalid},
		},
		Modified: {
			"local-load":   {Modified, Invalid, Invalid},
			"local-store":  {Modified, Invalid, Invalid},
			"remote-load":  {Owned, Shared, Invalid}, // dirty owner forwards, keeps ownership: M→O
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Invalid}, // writeback, line clean
		},
		Owned: { // holders {0,2}, dirty, owner 0
			"local-load":   {Owned, Invalid, Shared},
			"local-store":  {Modified, Invalid, Invalid}, // O→M reclaims exclusivity
			"remote-load":  {Owned, Shared, Shared},
			"remote-store": {Invalid, Modified, Invalid},
			"local-flush":  {Invalid, Invalid, Shared}, // owner writeback; survivor keeps a clean copy
		},
	}

	for _, start := range []State{Invalid, Shared, Exclusive, Modified, Owned} {
		for _, pr := range probes {
			t.Run(start.String()+"/"+pr.name, func(t *testing.T) {
				r := newMOESIRig()
				defer r.e.Close()
				r.enter(start)
				if got := r.sys.StateOf(0, moesiAddr); got != start {
					t.Fatalf("setup: core 0 in %v, want %v", got, start)
				}
				pr.do(r)
				w := want[start][pr.name]
				for c, exp := range w {
					if got := r.sys.StateOf(topo.CoreID(c), moesiAddr); got != exp {
						t.Errorf("core %d: got %v, want %v", c, got, exp)
					}
				}
				r.sys.CheckInvariants()
			})
		}
	}
}

// The E→M→O chain the silent upgrade makes possible: a clean exclusive line
// is dirtied without any bus traffic, then a remote read demotes the writer
// to owner instead of forcing a writeback — the line's only current copy
// stays in a cache.
func TestMOESISilentUpgradeToOwned(t *testing.T) {
	r := newMOESIRig()
	defer r.e.Close()
	r.load(0)
	if got := r.sys.StateOf(0, moesiAddr); got != Exclusive {
		t.Fatalf("after load: %v, want Exclusive", got)
	}
	before := r.sys.Stats(0).Upgrades
	r.store(0)
	if got := r.sys.StateOf(0, moesiAddr); got != Modified {
		t.Fatalf("after store: %v, want Modified", got)
	}
	if r.sys.Stats(0).Upgrades != before {
		t.Fatal("silent upgrade issued probes")
	}
	r.load(1)
	if got := r.sys.StateOf(0, moesiAddr); got != Owned {
		t.Fatalf("after remote load: %v, want Owned", got)
	}
	if got := r.sys.StateOf(1, moesiAddr); got != Shared {
		t.Fatalf("remote reader: %v, want Shared", got)
	}
	r.sys.CheckInvariants()
}
