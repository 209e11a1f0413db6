package monitor

import (
	"testing"

	"multikernel/internal/sim"
	"multikernel/internal/topo"
	"multikernel/internal/urpc"
)

func TestPowerOffUpdatesAllViews(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	var err error
	f.e.Spawn("init", func(p *sim.Proc) {
		err = f.net.PowerOff(p, 0, 9)
	})
	f.e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 16; c++ {
		mon := f.net.Monitor(topo.CoreID(c))
		if mon.Online(9) {
			t.Fatalf("monitor %d still believes core 9 is online", c)
		}
		if !mon.Online(3) {
			t.Fatalf("monitor %d lost an unrelated core", c)
		}
	}
}

func TestOfflineCoreExcludedFromShootdown(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	var ok bool
	f.e.Spawn("init", func(p *sim.Proc) {
		if err := f.net.PowerOff(p, 0, 9); err != nil {
			t.Error(err)
			return
		}
		ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
	})
	f.e.Run()
	if !ok {
		t.Fatal("unmap failed after power-off")
	}
	if f.invalidated[9] != 0 {
		t.Fatal("offline core 9 received a shootdown")
	}
	for c := 0; c < 16; c++ {
		if c != 9 && f.invalidated[topo.CoreID(c)] != 1 {
			t.Fatalf("online core %d invalidated %d times", c, f.invalidated[topo.CoreID(c)])
		}
	}
}

func TestPowerOnRejoinsProtocols(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	var ok bool
	f.e.Spawn("init", func(p *sim.Proc) {
		if err := f.net.PowerOff(p, 0, 9); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(2_000_000) // let the victim settle into its sleep loop
		if err := f.net.PowerOn(p, 0, 9); err != nil {
			t.Error(err)
			return
		}
		ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
	})
	f.e.Run()
	if !ok {
		t.Fatal("unmap failed after power-on")
	}
	if f.invalidated[9] != 1 {
		t.Fatalf("rejoined core 9 invalidated %d times, want 1", f.invalidated[9])
	}
	for c := 0; c < 16; c++ {
		if !f.net.Monitor(topo.CoreID(c)).Online(9) {
			t.Fatalf("monitor %d did not learn core 9 is back", c)
		}
	}
}

func TestPowerOffGuards(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	var errSelf, errTwice, errLast error
	f.e.Spawn("init", func(p *sim.Proc) {
		errSelf = f.net.PowerOff(p, 0, 0)
		f.net.PowerOff(p, 0, 1)
		errTwice = f.net.PowerOff(p, 0, 1)
		f.net.PowerOff(p, 0, 2)
		f.net.PowerOff(p, 0, 3)
		errLast = f.net.PowerOff(p, 3, 0) // initiator 3 is itself offline... use 0
	})
	f.e.Run()
	if errSelf == nil {
		t.Error("self power-off allowed")
	}
	if errTwice == nil {
		t.Error("double power-off allowed")
	}
	if errLast == nil {
		t.Error("last-core power-off allowed")
	}
}

func TestPowerOnAlreadyOnlineErrors(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	var err error
	f.e.Spawn("init", func(p *sim.Proc) {
		err = f.net.PowerOn(p, 0, 2)
	})
	f.e.Run()
	if err == nil {
		t.Fatal("power-on of online core allowed")
	}
}

func TestNameServiceRegisterLookup(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	ns := NewNameService(f.net, 0)
	var found bool
	var ref ServiceRef
	f.e.Spawn("svc", func(p *sim.Proc) {
		ns.Register(p, 5, "netd", 5, map[string]string{"proto": "udp"})
		ns.Register(p, 9, "webd", 9, map[string]string{"proto": "tcp"})
		ref, found = ns.Lookup(p, 12, "netd")
	})
	f.e.Run()
	if !found || ref.Core != 5 {
		t.Fatalf("lookup: %v %v", ref, found)
	}
}

func TestNameServiceLookupByProperty(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	ns := NewNameService(f.net, 0)
	var refs []ServiceRef
	f.e.Spawn("svc", func(p *sim.Proc) {
		ns.Register(p, 1, "b-svc", 1, map[string]string{"class": "driver"})
		ns.Register(p, 2, "a-svc", 2, map[string]string{"class": "driver"})
		ns.Register(p, 3, "c-svc", 3, map[string]string{"class": "app"})
		refs = ns.LookupByProperty(p, 4, "class", "driver")
	})
	f.e.Run()
	if len(refs) != 2 || refs[0].Name != "a-svc" || refs[1].Name != "b-svc" {
		t.Fatalf("refs: %v", refs)
	}
}

func TestNameServiceUnregister(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	ns := NewNameService(f.net, 0)
	var first, second bool
	var stillThere bool
	f.e.Spawn("svc", func(p *sim.Proc) {
		ns.Register(p, 1, "x", 1, nil)
		first = ns.Unregister(p, 2, "x")
		second = ns.Unregister(p, 2, "x")
		_, stillThere = ns.Lookup(p, 3, "x")
	})
	f.e.Run()
	if !first || second || stillThere {
		t.Fatalf("first=%v second=%v stillThere=%v", first, second, stillThere)
	}
}

func TestBindServiceEstablishesWorkingChannel(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	ns := NewNameService(f.net, 0)
	var echoed uint64
	f.e.Spawn("init", func(p *sim.Proc) {
		ns.Register(p, 9, "echo", 9, nil)
		client, server, ok := ns.BindService(p, 4, "echo")
		if !ok {
			t.Error("bind failed")
			return
		}
		// Service side echoes one message.
		f.e.Spawn("echo-svc", func(sp *sim.Proc) {
			var msg [1]urpc.Message
			server.Rx.Recv(sp, msg[:], urpc.Spin)
			server.Tx.Send(sp, msg[:], urpc.Spin)
		})
		client.Tx.Send(p, []urpc.Message{{42}}, urpc.Spin)
		var reply [1]urpc.Message
		client.Rx.Recv(p, reply[:], urpc.Spin)
		echoed = reply[0][0]
	})
	f.e.Run()
	if echoed != 42 {
		t.Fatalf("echoed %d", echoed)
	}
}

func TestBindUnknownServiceFails(t *testing.T) {
	f := newFixture(t, topo.AMD2x2())
	ns := NewNameService(f.net, 0)
	ok := true
	f.e.Spawn("init", func(p *sim.Proc) {
		_, _, ok = ns.BindService(p, 1, "missing")
	})
	f.e.Run()
	if ok {
		t.Fatal("bind to unknown name succeeded")
	}
}

// TestPowerOffMulticastRootMidOperation powers off a core while it is the
// multicast aggregation root of an in-flight shootdown. The victim's monitor
// learns it is offline before its slow children have answered; it must drain
// the aggregation duty (forward the ack upward) before parking, or both the
// shootdown and the power-off would hang forever.
func TestPowerOffMulticastRootMidOperation(t *testing.T) {
	f := newFixture(t, topo.AMD4x4())
	// Socket 1's cores answer slowly, so the aggregation at core 4 (socket 1's
	// root in the tree from core 0) is still pending when the power-off lands.
	f.net.Hooks.Invalidate = func(p *sim.Proc, core topo.CoreID, op Op) {
		f.invalidated[core]++
		if core >= 5 && core <= 7 {
			p.Sleep(60_000)
		}
	}
	var ok bool
	var offErr error
	f.e.Spawn("app", func(p *sim.Proc) {
		ok = f.net.Monitor(0).Unmap(p, 0x10000, 4096, nil, NUMAAware)
	})
	f.e.Spawn("hotplug", func(p *sim.Proc) {
		p.Sleep(8_000) // after the shootdown reaches core 4, before its children answer
		offErr = f.net.PowerOff(p, 1, 4)
	})
	f.e.Run()
	if offErr != nil {
		t.Fatalf("power-off: %v", offErr)
	}
	if !ok {
		t.Fatal("unmap hung or failed around the power-off")
	}
	for _, c := range []topo.CoreID{5, 6, 7} {
		if f.invalidated[c] != 1 {
			t.Errorf("core %d invalidated %d times, want 1", c, f.invalidated[c])
		}
	}
	for c := 0; c < 16; c++ {
		if c != 4 && f.net.Monitor(topo.CoreID(c)).Online(4) {
			t.Errorf("monitor %d still believes core 4 is online", c)
		}
	}
	if dl := f.e.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked procs: %v", dl)
	}
}
