package monitor

import (
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/caps"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
)

type fixture struct {
	e    *sim.Engine
	m    *topo.Machine
	sys  *cache.System
	kern *kernel.System
	kb   *skb.KB
	net  *Network

	invalidated map[topo.CoreID]int
	prepared    map[topo.CoreID]int
	applied     map[topo.CoreID]int
	vetoCores   map[topo.CoreID]bool
}

func newFixture(t *testing.T, m *topo.Machine) *fixture {
	t.Helper()
	f := newFixtureQuick(m)
	t.Cleanup(f.e.Close)
	// Fault-free runs must never exercise the deadline machinery: no URPC
	// timeout or backed-off retry anywhere in the engine's registry.
	t.Cleanup(func() {
		snap := f.e.Metrics().Snapshot()
		if to, re := snap.Counters["urpc.timeouts"], snap.Counters["urpc.retries"]; to != 0 || re != 0 {
			t.Errorf("fault-free run: urpc.timeouts=%d urpc.retries=%d, want 0/0", to, re)
		}
	})
	return f
}

func TestUnmapReachesAllCoresEveryProtocol(t *testing.T) {
	for _, proto := range []Protocol{Unicast, Multicast, NUMAAware} {
		f := newFixture(t, topo.AMD4x4())
		ok := false
		f.e.Spawn("app", func(p *sim.Proc) {
			ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, proto)
		})
		f.e.Run()
		if !ok {
			t.Fatalf("%v: unmap failed", proto)
		}
		for c := 0; c < 16; c++ {
			if f.invalidated[topo.CoreID(c)] != 1 {
				t.Fatalf("%v: core %d invalidated %d times, want 1", proto, c, f.invalidated[topo.CoreID(c)])
			}
		}
	}
}

func TestUnmapSubsetOnlyTouchesTargets(t *testing.T) {
	f := newFixture(t, topo.AMD8x4())
	targets := []topo.CoreID{0, 3, 8, 9, 31}
	f.e.Spawn("app", func(p *sim.Proc) {
		f.net.Monitor(0).Unmap(p, 0x10000, 4096, targets, NUMAAware)
	})
	f.e.Run()
	want := map[topo.CoreID]bool{0: true, 3: true, 8: true, 9: true, 31: true}
	for c := 0; c < 32; c++ {
		id := topo.CoreID(c)
		if want[id] && f.invalidated[id] != 1 {
			t.Errorf("target core %d invalidated %d times", c, f.invalidated[id])
		}
		if !want[id] && f.invalidated[id] != 0 {
			t.Errorf("non-target core %d invalidated", c)
		}
	}
}

func TestNUMAAwareBeatsUnicastAtScale(t *testing.T) {
	measure := func(proto Protocol) sim.Time {
		f := newFixture(t, topo.AMD8x4())
		var lat sim.Time
		f.e.Spawn("app", func(p *sim.Proc) {
			// Warm one operation, then measure.
			f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, proto)
			start := p.Now()
			f.net.Monitor(0).Unmap(p, 0x20000, 4096, nil, proto)
			lat = p.Now() - start
		})
		f.e.Run()
		return lat
	}
	uni, numa := measure(Unicast), measure(NUMAAware)
	if numa >= uni {
		t.Fatalf("NUMA-aware multicast (%d) not faster than unicast (%d) on 32 cores", numa, uni)
	}
}

func TestRetypeCommitsEverywhere(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	ok := false
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(3).Retype(p, 0x40000, 8192, caps.Frame, 0, nil)
	})
	f.e.Run()
	if !ok {
		t.Fatal("retype aborted unexpectedly")
	}
	for c := 0; c < 16; c++ {
		id := topo.CoreID(c)
		if f.applied[id] != 1 {
			t.Fatalf("core %d applied %d times, want 1", c, f.applied[id])
		}
	}
	// Prepare ran on all remote cores (origin validates locally too).
	for c := 0; c < 16; c++ {
		if f.prepared[topo.CoreID(c)] != 1 {
			t.Fatalf("core %d prepared %d times", c, f.prepared[topo.CoreID(c)])
		}
	}
	// All locks drained.
	for c := 0; c < 16; c++ {
		if n := f.net.Monitor(topo.CoreID(c)).LockedRanges(); n != 0 {
			t.Fatalf("core %d still holds %d locks", c, n)
		}
	}
	if f.net.Monitor(3).Stats().Commits != 1 {
		t.Fatal("commit not counted")
	}
}

func TestRetypeAbortsOnVeto(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	f.vetoCores[9] = true
	ok := true
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).Retype(p, 0x40000, 4096, caps.Frame, 0, nil)
	})
	f.e.Run()
	if ok {
		t.Fatal("retype committed despite veto")
	}
	for c := 0; c < 16; c++ {
		if f.applied[topo.CoreID(c)] != 0 {
			t.Fatalf("core %d applied an aborted op", c)
		}
		if n := f.net.Monitor(topo.CoreID(c)).LockedRanges(); n != 0 {
			t.Fatalf("core %d leaked %d locks after abort", c, n)
		}
	}
	if f.net.Monitor(0).Stats().Aborts != 1 {
		t.Fatal("abort not counted")
	}
}

func TestConcurrentConflictingRetypes(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	results := make(map[topo.CoreID]bool)
	for _, core := range []topo.CoreID{0, 12} {
		core := core
		f.e.Spawn("app", func(p *sim.Proc) {
			// Overlapping ranges from different initiators.
			results[core] = f.net.Monitor(core).Retype(p, 0x80000, 8192, caps.Frame, 0, nil)
		})
	}
	f.e.Run()
	committed := 0
	for _, ok := range results {
		if ok {
			committed++
		}
	}
	if committed > 1 {
		t.Fatalf("%d conflicting retypes committed; range locks failed", committed)
	}
	for c := 0; c < 16; c++ {
		if n := f.net.Monitor(topo.CoreID(c)).LockedRanges(); n != 0 {
			t.Fatalf("core %d leaked %d locks", c, n)
		}
	}
}

func TestConcurrentDisjointRetypesBothCommit(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	results := make(map[topo.CoreID]bool)
	ranges := map[topo.CoreID]memory.Addr{4: 0x100000, 8: 0x200000}
	for core, base := range ranges {
		core, base := core, base
		f.e.Spawn("app", func(p *sim.Proc) {
			results[core] = f.net.Monitor(core).Retype(p, base, 4096, caps.Frame, 0, nil)
		})
	}
	f.e.Run()
	if !results[4] || !results[8] {
		t.Fatalf("disjoint retypes interfered: %v", results)
	}
}

// Depth-16 pipelined retypes must all commit and leave no proc parked. On
// the 8x4 machine after a warm round, one operation's response lands in a
// ring its monitor already polled in the pass before it parks; the monitor
// must still notice it, or the driver waits forever.
func TestPipelinedRetypesAllComplete(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *topo.Machine
		base memory.Addr
		warm bool // one blocking retype just below base first
	}{
		{"4x4", topo.AMD4x4(), 0x100000, false},
		{"8x4_warm", topo.AMD8x4(), 1<<30 + 0x10000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.m)
			const depth = 16
			done := 0
			f.e.Spawn("app", func(p *sim.Proc) {
				mon := f.net.Monitor(0)
				if tc.warm {
					mon.Retype(p, tc.base-0x10000, 4096, caps.Frame, 0, nil)
				}
				var futs []*sim.Future[bool]
				for i := 0; i < depth; i++ {
					base := tc.base + memory.Addr(i*0x10000)
					futs = append(futs, mon.RetypeAsync(p, base, 4096, caps.Frame, 0, nil))
				}
				for _, fut := range futs {
					if fut.Await(p) {
						done++
					}
				}
			})
			f.e.Run()
			if d := f.e.Deadlocked(); len(d) > 0 {
				t.Fatalf("procs still parked after Run: %v", d)
			}
			if done != depth {
				t.Fatalf("%d/%d pipelined retypes committed", done, depth)
			}
		})
	}
}

func TestSendCapDeliversToRemoteCSpace(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	c := caps.Capability{Type: caps.Frame, Base: 0x5000, Bytes: 4096, Rights: caps.AllRights}
	ok := false
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).SendCap(p, 3, c)
	})
	f.e.Run()
	if !ok {
		t.Fatal("cap transfer refused")
	}
	got := f.net.Monitor(3).CS.All()
	if len(got) != 1 || got[0].Base != 0x5000 || got[0].Type != caps.Frame {
		t.Fatalf("remote cspace: %v", got)
	}
}

func TestSendCapRequiresGrant(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	c := caps.Capability{Type: caps.Frame, Base: 0x5000, Bytes: 4096, Rights: caps.CanRead}
	ok := true
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).SendCap(p, 3, c)
	})
	f.e.Run()
	if ok {
		t.Fatal("grant-less cap transferred")
	}
	if len(f.net.Monitor(3).CS.All()) != 0 {
		t.Fatal("cap appeared in remote cspace")
	}
}

func TestPingLatencySane(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	var rtt sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		f.net.Monitor(0).Ping(p, 2) // warm
		rtt = f.net.Monitor(0).Ping(p, 2)
	})
	f.e.Run()
	// Two LRPCs + two URPC one-ways + dispatch: several thousand cycles, but
	// well under a blocking timeout path.
	if rtt < 2000 || rtt > 40_000 {
		t.Fatalf("ping rtt=%d cycles", rtt)
	}
}

func TestMonitorsBlockWhenIdleAndWake(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	var late bool
	f.e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(5_000_000) // long idle: all monitors should have parked
		late = true
		f.net.Monitor(0).Unmap(p, 0x1000, 4096, nil, NUMAAware)
	})
	f.e.Run()
	if !late {
		t.Fatal("test did not run")
	}
	// At least one remote monitor must have been woken from blocked state.
	total := uint64(0)
	for c := 0; c < 4; c++ {
		total += f.net.Monitor(topo.CoreID(c)).Stats().Wakeups
	}
	if total == 0 {
		t.Fatal("no monitor wakeups recorded after long idle")
	}
}
