package kernel

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

func TestLRPCCostMatchesTable1(t *testing.T) {
	// Paper Table 1 one-way LRPC latencies in cycles.
	want := map[string]sim.Time{
		"2x4-core Intel": 845,
		"2x2-core AMD":   757,
		"4x4-core AMD":   1463,
		"8x4-core AMD":   1549,
	}
	for _, m := range topo.AllMachines() {
		got := LRPCCost(m)
		w := want[m.Name]
		// The model composes the cost from syscall + check + switch + upcall
		// + dispatch; allow 3% calibration slack.
		lo, hi := w*97/100, w*103/100
		if got < lo || got > hi {
			t.Errorf("%s: LRPC=%d cycles, want ~%d", m.Name, got, w)
		}
	}
}

func TestLRPCChargesTime(t *testing.T) {
	e := sim.NewEngine(1)
	m := topo.AMD2x2()
	sys := NewSystem(e, m)
	var took sim.Time
	e.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		sys.Core(0).LRPC(p)
		took = p.Now() - start
	})
	e.Run()
	if took != LRPCCost(m) {
		t.Fatalf("charged %d, want %d", took, LRPCCost(m))
	}
}

func TestIPIDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	m := topo.AMD4x4()
	sys := NewSystem(e, m)
	var gotFrom topo.CoreID = -1
	var gotVec int
	var deliveredAt sim.Time
	sys.Core(12).OnIPI(func(from topo.CoreID, vector int) {
		gotFrom, gotVec = from, vector
		deliveredAt = e.Now()
	})
	var sentAt sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		sentAt = p.Now()
		sys.Core(0).SendIPI(p, 12, 7)
	})
	e.Run()
	if gotFrom != 0 || gotVec != 7 {
		t.Fatalf("handler got from=%d vec=%d", gotFrom, gotVec)
	}
	if deliveredAt <= sentAt {
		t.Fatal("IPI arrived instantaneously")
	}
}

func TestIPIWakesParkedProc(t *testing.T) {
	e := sim.NewEngine(1)
	sys := NewSystem(e, topo.AMD2x2())
	var wokenAt sim.Time
	waiter := e.Spawn("idle", func(p *sim.Proc) {
		p.Park()
		sys.Core(2).Trap(p) // interrupt entry on wake
		wokenAt = p.Now()
	})
	sys.Core(2).OnIPI(func(from topo.CoreID, vector int) { e.Wake(waiter) })
	e.Spawn("sender", func(p *sim.Proc) {
		p.Sleep(1000)
		sys.Core(0).SendIPI(p, 2, 1)
	})
	e.Run()
	e.CheckQuiesced()
	if wokenAt < 1000 {
		t.Fatalf("woken at %d, before IPI was sent", wokenAt)
	}
}

func TestSyscallTrapSwitchCounters(t *testing.T) {
	e := sim.NewEngine(1)
	m := topo.Intel2x4()
	sys := NewSystem(e, m)
	e.Spawn("p", func(p *sim.Proc) {
		c := sys.Core(3)
		c.Syscall(p)
		c.Trap(p)
		c.ContextSwitch(p)
	})
	e.Run()
	want := m.Costs.Syscall + m.Costs.Trap + m.Costs.CSwitch
	if e.Now() != want {
		t.Fatalf("elapsed %d, want %d", e.Now(), want)
	}
}

func TestPerCoreDriverIsolation(t *testing.T) {
	e := sim.NewEngine(1)
	sys := NewSystem(e, topo.AMD8x4())
	if len(sys.Cores) != 32 {
		t.Fatalf("%d drivers, want 32", len(sys.Cores))
	}
	// An IPI to core 5 runs core 5's handler and no other driver's.
	ran := make([]int, len(sys.Cores))
	for _, c := range sys.Cores {
		c.OnIPI(func(from topo.CoreID, vector int) { ran[c.ID]++ })
	}
	e.Spawn("p", func(p *sim.Proc) { sys.Core(4).SendIPI(p, 5, 1) })
	e.Run()
	for c, n := range ran {
		want := 0
		if c == 5 {
			want = 1
		}
		if n != want {
			t.Fatalf("core %d's handler ran %d times, want %d", c, n, want)
		}
	}
}
