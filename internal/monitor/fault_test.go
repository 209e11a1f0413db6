package monitor

import (
	"testing"

	"multikernel/internal/caps"
	"multikernel/internal/fault"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

// faultTimeout is the aggregation deadline used by the fault tests: far above
// any fault-free response time on these machines (so live cores are never
// falsely suspected), far below the test horizon.
const faultTimeout = 100_000

func newFaultFixture(t *testing.T, m *topo.Machine) *fixture {
	t.Helper()
	f := newFixtureQuick(m)
	f.net.EnableFaultTolerance(faultTimeout)
	t.Cleanup(f.e.Close)
	return f
}

// assertSurvivorViews checks that every surviving monitor's replicated view
// marks exactly the fail-stopped cores offline.
func assertSurvivorViews(t *testing.T, f *fixture) {
	t.Helper()
	for c := 0; c < f.m.NumCores(); c++ {
		mon := f.net.Monitor(topo.CoreID(c))
		if f.net.CoreFailed(mon.Core) {
			continue
		}
		for v := 0; v < f.m.NumCores(); v++ {
			want := !f.net.CoreFailed(topo.CoreID(v))
			if mon.Online(topo.CoreID(v)) != want {
				t.Errorf("monitor %d: Online(%d)=%v, want %v", c, v, !want, want)
			}
		}
	}
}

func sumRecoveries(f *fixture) (rec, excised uint64) {
	for c := 0; c < f.m.NumCores(); c++ {
		st := f.net.Monitor(topo.CoreID(c)).Stats()
		rec += st.Recoveries
		excised += st.Excised
	}
	return rec, excised
}

// TestShootdownSurvivesLeafDeath is the headline acceptance scenario: a fault
// schedule kills one core mid-shootdown on the 8x4 machine, and the operation
// completes on the 31 survivors with finite recovery latency.
func TestShootdownSurvivesLeafDeath(t *testing.T) {
	f := newFaultFixture(t, topo.AMD8x4())
	// Slow invalidations keep the operation in flight when the fault lands.
	f.net.Hooks.Invalidate = func(p *sim.Proc, core topo.CoreID, op Op) {
		f.invalidated[core]++
		p.Sleep(20_000)
	}
	f.e.After(10_000, func() { f.net.FailStop(9) }) // leaf of socket 2's group
	ok := false
	var latency sim.Time
	f.e.Spawn("app", func(p *sim.Proc) {
		start := p.Now()
		ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
		latency = p.Now() - start
	})
	f.e.Run()
	if !ok {
		t.Fatal("unmap did not complete on the survivors")
	}
	if latency == 0 || latency > 2_000_000 {
		t.Fatalf("recovery latency %d not finite/sane", latency)
	}
	for c := 0; c < 32; c++ {
		if c == 9 {
			continue
		}
		if f.invalidated[topo.CoreID(c)] < 1 {
			t.Errorf("survivor %d never invalidated", c)
		}
	}
	rec, excised := sumRecoveries(f)
	if rec == 0 || excised == 0 {
		t.Fatalf("recoveries=%d excised=%d, want both > 0", rec, excised)
	}
	assertSurvivorViews(t, f)
	if dl := f.e.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked procs: %v", dl)
	}
}

// TestShootdownSurvivesAggregatorDeath kills a multicast aggregation root
// mid-operation: the initiator must time out, excise it, recompute the tree
// over the survivors (a new aggregator for that socket), and re-run.
func TestShootdownSurvivesAggregatorDeath(t *testing.T) {
	f := newFaultFixture(t, topo.AMD8x4())
	f.net.Hooks.Invalidate = func(p *sim.Proc, core topo.CoreID, op Op) {
		f.invalidated[core]++
		p.Sleep(20_000)
	}
	f.e.After(10_000, func() { f.net.FailStop(8) }) // socket 2's aggregation root
	ok := false
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
	})
	f.e.Run()
	if !ok {
		t.Fatal("unmap did not survive aggregator death")
	}
	// The dead aggregator's children were re-reached through the re-planned
	// tree rooted at a surviving socket-2 core.
	for _, c := range []topo.CoreID{9, 10, 11} {
		if f.invalidated[c] < 1 {
			t.Errorf("core %d (child of dead aggregator) never invalidated", c)
		}
	}
	assertSurvivorViews(t, f)
}

// TestRetypeSurvivesParticipantDeath runs the 2PC path through a fault: a
// participant dies before voting; its aggregator treats the silent child as
// harmless (dead cores hold no locks worth honoring) and the retype commits
// on the survivors with all locks drained.
func TestRetypeSurvivesParticipantDeath(t *testing.T) {
	f := newFaultFixture(t, topo.AMD4x4())
	f.net.Hooks.Prepare = func(p *sim.Proc, core topo.CoreID, op Op) bool {
		f.prepared[core]++
		p.Sleep(20_000)
		return true
	}
	f.e.After(10_000, func() { f.net.FailStop(5) })
	ok := false
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).Retype(p, 0x40000, 8192, caps.Frame, 0, nil)
	})
	f.e.Run()
	if !ok {
		t.Fatal("retype did not commit on the survivors")
	}
	for c := 0; c < 16; c++ {
		id := topo.CoreID(c)
		if f.net.CoreFailed(id) {
			continue
		}
		if f.applied[id] < 1 {
			t.Errorf("survivor %d never applied the commit", c)
		}
		if n := f.net.Monitor(id).LockedRanges(); n != 0 {
			t.Errorf("survivor %d still holds %d locks", c, n)
		}
	}
	assertSurvivorViews(t, f)
}

// TestPingToDeadCoreFailsFinite: a single-target operation against a dead
// core cannot be re-planned; it must fail within the deadline budget rather
// than hang, and the dead core must be excised.
func TestPingToDeadCoreFailsFinite(t *testing.T) {
	f := newFaultFixture(t, topo.AMD2x2())
	f.net.FailStop(2)
	var rtt sim.Time
	var ok bool
	f.e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(1_000)
		start := p.Now()
		op := Op{Kind: OpNone, ID: f.net.Monitor(0).nextOpID(), Origin: 0}
		mon := f.net.Monitor(0)
		ok = mon.finishCall(p, mon.submit(p, &localReq{op: op, targets: []topo.CoreID{2}}))
		rtt = p.Now() - start
	})
	f.e.Run()
	if ok {
		t.Fatal("ping to a dead core reported success")
	}
	if rtt == 0 || rtt > 10*faultTimeout {
		t.Fatalf("dead-core ping took %d cycles, want finite and bounded", rtt)
	}
	if f.net.Monitor(0).Online(2) {
		t.Fatal("dead core not excised from initiator's view")
	}
	if dl := f.e.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked procs: %v", dl)
	}
}

// TestViewConvergenceProperty: for seeded fault schedules killing up to n-2
// cores (never the driving core 0), operations complete and — after the
// driver's anti-entropy pass — every surviving monitor converges to the same
// online view: exactly the survivors.
func TestViewConvergenceProperty(t *testing.T) {
	m := topo.AMD4x4()
	for seed := uint64(0); seed < 8; seed++ {
		f := newFaultFixture(t, m)
		inj := fault.NewInjector(f.e, f.sys)
		inj.OnKill(func(c topo.CoreID) { f.net.FailStop(c) })
		kills := 1 + int(seed%5)
		sched := fault.Random(seed, m, fault.Spec{
			Kills:   kills,
			Window:  [2]sim.Time{20_000, 250_000},
			Protect: []topo.CoreID{0},
		})
		inj.Arm(sched)
		lastOK := false
		f.e.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 6; i++ {
				p.Sleep(10_000)
				lastOK = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
				p.Sleep(50_000)
			}
			// By now every kill has happened and every dead core has been
			// planned into at least one operation, so core 0's view is the
			// ground truth; repair the stragglers.
			f.net.Monitor(0).ReplicateView(p)
		})
		f.e.Run()
		if !lastOK {
			t.Fatalf("seed %d (%d kills): final unmap failed", seed, kills)
		}
		nFailed := 0
		for c := 0; c < m.NumCores(); c++ {
			if f.net.CoreFailed(topo.CoreID(c)) {
				nFailed++
			}
		}
		if nFailed == 0 {
			t.Fatalf("seed %d: schedule killed nobody", seed)
		}
		assertSurvivorViews(t, f)
		if t.Failed() {
			t.Fatalf("seed %d (%d kills): views diverged\nschedule:\n%s", seed, nFailed, sched)
		}
		f.e.Close()
	}
}

// TestStrayResponsesTolerated: a stalled (not dead) core that answers after
// being excised must not crash the network — its late responses count as
// strays and are dropped.
func TestStrayResponsesTolerated(t *testing.T) {
	f := newFaultFixture(t, topo.AMD2x2())
	// Core 3 is alive but its monitor naps through the entire operation and
	// its recovery, then wakes and answers.
	slow := topo.CoreID(3)
	f.net.Hooks.Invalidate = func(p *sim.Proc, core topo.CoreID, op Op) {
		f.invalidated[core]++
		if core == slow {
			p.Sleep(5 * faultTimeout)
		}
	}
	ok := false
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, Unicast)
	})
	f.e.Run()
	if !ok {
		t.Fatal("unmap did not complete around the stalled core")
	}
	strays := uint64(0)
	for c := 0; c < 4; c++ {
		strays += f.net.Monitor(topo.CoreID(c)).Stats().Strays
	}
	if strays == 0 {
		t.Fatal("late answer from the stalled core was not counted as a stray")
	}
}
