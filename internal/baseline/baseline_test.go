package baseline

import (
	"bytes"
	"testing"

	"multikernel/internal/cache"
	"multikernel/internal/interconnect"
	"multikernel/internal/kernel"
	"multikernel/internal/memory"
	"multikernel/internal/sim"
	"multikernel/internal/topo"
)

type rig struct {
	e    *sim.Engine
	m    *topo.Machine
	sys  *cache.System
	kern *kernel.System
}

func newRig(m *topo.Machine) *rig {
	e := sim.NewEngine(1)
	sys := cache.New(e, m, memory.New(m), interconnect.New(m))
	return &rig{e: e, m: m, sys: sys, kern: kernel.NewSystem(e, m)}
}

func allCores(m *topo.Machine) []topo.CoreID {
	out := make([]topo.CoreID, m.NumCores())
	for i := range out {
		out[i] = topo.CoreID(i)
	}
	return out
}

func TestUnmapCompletesAndScalesLinearly(t *testing.T) {
	measure := func(n int) sim.Time {
		r := newRig(topo.AMD8x4())
		defer r.e.Close()
		k := New(r.e, r.sys, r.kern, Linux)
		var lat sim.Time
		r.e.Spawn("app", func(p *sim.Proc) {
			targets := allCores(r.m)[:n]
			k.Unmap(p, 0, targets) // warm
			start := p.Now()
			k.Unmap(p, 0, targets)
			lat = p.Now() - start
		})
		r.e.Run()
		return lat
	}
	l2, l16, l32 := measure(2), measure(16), measure(32)
	t.Logf("linux unmap: 2=%d 16=%d 32=%d", l2, l16, l32)
	if !(l2 < l16 && l16 < l32) {
		t.Fatalf("not monotone: %d %d %d", l2, l16, l32)
	}
	// Roughly linear: 32-core cost should be at least 5x the 2-core cost.
	if l32 < 5*l2 {
		t.Fatalf("unexpectedly flat scaling: %d vs %d", l2, l32)
	}
}

func TestAllShotCoresInvalidate(t *testing.T) {
	r := newRig(topo.AMD4x4())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	r.e.Spawn("app", func(p *sim.Proc) {
		k.Unmap(p, 0, allCores(r.m))
	})
	r.e.Run()
	// Every non-initiating core must have taken exactly one IPI. Only the
	// IPI handler reads the operation descriptor, and the initiator's store
	// took it from every earlier holder, so each core holding it read it for
	// this shootdown; each such read is followed by one acknowledgement, so
	// a total of 15 leaves one per core.
	var holders cache.CoreSet
	r.sys.ForEachLine(func(id memory.LineID, v cache.LineView) {
		if id == k.shootOp.Line() {
			holders = v.Holders
		}
	})
	for c := 1; c < 16; c++ {
		if !holders.Has(topo.CoreID(c)) {
			t.Fatalf("core %d never read the shootdown descriptor", c)
		}
	}
	if acks := r.sys.Memory().LoadWord(k.shootAck); acks != 15 {
		t.Fatalf("%d shootdown acknowledgements, want 15", acks)
	}
}

func TestWindowsCheaperPerIPIPath(t *testing.T) {
	measure := func(f Flavor) sim.Time {
		r := newRig(topo.AMD8x4())
		defer r.e.Close()
		k := New(r.e, r.sys, r.kern, f)
		var lat sim.Time
		r.e.Spawn("app", func(p *sim.Proc) {
			k.Unmap(p, 0, allCores(r.m))
			start := p.Now()
			k.Unmap(p, 0, allCores(r.m))
			lat = p.Now() - start
		})
		r.e.Run()
		return lat
	}
	if lw, ww := measure(Linux), measure(Windows); ww >= lw {
		t.Fatalf("windows (%d) not cheaper than linux (%d) at 32 cores", ww, lw)
	}
}

func TestKernelBarrier(t *testing.T) {
	r := newRig(topo.AMD4x4())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	const n = 8
	b := k.NewBarrier(n, 0)
	reached := 0
	passed := 0
	for i := 0; i < n; i++ {
		i := i
		r.e.Spawn("w", func(p *sim.Proc) {
			p.Sleep(sim.Time(i * 500)) // staggered arrivals
			reached++
			b.Wait(p, topo.CoreID(i))
			if reached != n {
				t.Errorf("thread %d passed barrier with only %d arrived", i, reached)
			}
			passed++
		})
	}
	r.e.Run()
	if passed != n {
		t.Fatalf("%d passed, want %d", passed, n)
	}
}

func TestKernelBarrierReusable(t *testing.T) {
	r := newRig(topo.AMD2x2())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	b := k.NewBarrier(4, 0)
	rounds := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		r.e.Spawn("w", func(p *sim.Proc) {
			for round := 0; round < 3; round++ {
				p.Sleep(sim.Time(100 * (i + 1)))
				b.Wait(p, topo.CoreID(i))
				rounds[i]++
			}
		})
	}
	r.e.Run()
	for i, n := range rounds {
		if n != 3 {
			t.Fatalf("thread %d completed %d rounds", i, n)
		}
	}
}

func TestRunQueueFIFOUnderContention(t *testing.T) {
	r := newRig(topo.AMD4x4())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	q := k.NewRunQueue(0)
	var got []int
	r.e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			q.Enqueue(p, 0, i)
		}
	})
	r.e.Spawn("consumer", func(p *sim.Proc) {
		for len(got) < 20 {
			if v, ok := q.Dequeue(p, 8); ok {
				got = append(got, v)
			} else {
				p.Sleep(100)
			}
		}
	})
	r.e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("dequeue order broken at %d: %v", i, got[:i+1])
		}
	}
}

func TestLoopbackDeliversPayload(t *testing.T) {
	r := newRig(topo.AMD2x2())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	lb := k.NewLoopback(1500, 0)
	payload := bytes.Repeat([]byte{0xab, 0xcd}, 500) // 1000 bytes
	var got []byte
	r.e.Spawn("sink", func(p *sim.Proc) {
		got = lb.Recv(p, 2)
	})
	r.e.Spawn("source", func(p *sim.Proc) {
		p.Sleep(1000)
		lb.Send(p, 0, payload)
	})
	r.e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %d bytes", len(got))
	}
}

func TestLoopbackManyPacketsInOrder(t *testing.T) {
	r := newRig(topo.AMD2x2())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	lb := k.NewLoopback(256, 0)
	const n = 100
	var seq []byte
	r.e.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pkt := lb.Recv(p, 2)
			seq = append(seq, pkt[0])
		}
	})
	r.e.Spawn("source", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lb.Send(p, 0, []byte{byte(i), 1, 2, 3})
		}
	})
	r.e.Run()
	if len(seq) != n {
		t.Fatalf("received %d", len(seq))
	}
	for i, b := range seq {
		if b != byte(i) {
			t.Fatalf("packet %d out of order", i)
		}
	}
}

func TestLoopbackGeneratesSharedMemoryTraffic(t *testing.T) {
	r := newRig(topo.AMD2x2())
	defer r.e.Close()
	k := New(r.e, r.sys, r.kern, Linux)
	lb := k.NewLoopback(1500, 0)
	payload := bytes.Repeat([]byte{1}, 1000)
	r.e.Spawn("sink", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			lb.Recv(p, 2) // other socket
		}
	})
	r.e.Spawn("source", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			lb.Send(p, 0, payload)
		}
	})
	r.e.Run()
	// Payload and queue metadata must have crossed the interconnect in both
	// directions (lock/ack lines ping-pong).
	if fwd := r.sys.Fabric().PathDwords(0, 1); fwd == 0 {
		t.Fatal("no forward interconnect traffic")
	}
	if rev := r.sys.Fabric().PathDwords(1, 0); rev == 0 {
		t.Fatal("no reverse interconnect traffic (locks should ping-pong)")
	}
}
